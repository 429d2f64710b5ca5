package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one sqlserved child process and the single keep-alive client
// connection that drives it.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait returns
	base   string        // http://127.0.0.1:PORT
	client *http.Client
}

// newClient returns a client that keeps exactly one idle connection, so a
// closed loop of sequential requests rides one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the daemon with every preset warmed and returns once
// /readyz answers 200, with the time from exec to readiness.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-warm", "all")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr, client: newClient()}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported by stop
		close(d.exited)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, errors.New("daemon exited before becoming ready")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("daemon not ready within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// drain takes longer than ten seconds.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// counters scrapes the unlabelled counters of /metrics (Prometheus text).
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// stealTicks reads the machine-wide CPU time the hypervisor ran other
// guests on this guest's CPUs, a diagnostic of host contention (0 when
// /proc/stat does not report it).
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
