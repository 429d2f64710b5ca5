package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// emitted is one Emit call, copied out of the pipeline's slot.
type emitted struct {
	Stmt
	res string
}

// serialStmts is what Run must hand out for src: the scanner's statements
// minus the trivia-only tail, numbered, with HasMore on all but the last.
func serialStmts(t *testing.T, src string) []Stmt {
	t.Helper()
	sc := NewScanner(testLexer(t, streamTokens), strings.NewReader(src), Config{})
	var out []Stmt
	for {
		st, err := sc.Next()
		if err != nil {
			break
		}
		if len(st.Tokens) == 0 && st.Err == nil {
			continue
		}
		if len(out) > 0 {
			out[len(out)-1].HasMore = true
		}
		out = append(out, Stmt{Seq: len(out), Text: st.Text, Off: st.Off, Line: st.Line, Col: st.Col, FirstLine: firstLine(st)})
	}
	return out
}

// pipelineScript mixes accepted statements, lexical errors, comments and
// multi-line statements, ending in a statement without ';' and a
// trivia-only tail.
func pipelineScript(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch i % 9 {
		case 3:
			fmt.Fprintf(&b, "SELECT @ x%d;\n", i)
		case 5:
			fmt.Fprintf(&b, "-- note %d\nSELECT a\n  FROM t%d;\n", i, i)
		default:
			fmt.Fprintf(&b, "SELECT c%d FROM t WHERE c <= %d;\n", i, i)
		}
	}
	b.WriteString("SELECT last FROM t -- trailing\n")
	return b.String()
}

func TestPipelineEmitsInInputOrder(t *testing.T) {
	src := pipelineScript(600)
	want := serialStmts(t, src)
	for _, workers := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var checks atomic.Int64
			var got []emitted
			p := Pipeline[string]{
				Workers: workers,
				// Uneven work, so completions arrive out of order.
				Check: func(st *Stmt) string {
					checks.Add(1)
					if st.Seq%7 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
					return "check " + st.Text
				},
				Emit: func(st *Stmt, r string) { got = append(got, emitted{*st, r}) },
			}
			sc := NewScanner(testLexer(t, streamTokens), smallReads{strings.NewReader(src), 512}, Config{})
			if err := p.Run(context.Background(), sc); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("emitted %d statements, want %d", len(got), len(want))
			}
			for i, g := range got {
				if g.Stmt != want[i] {
					t.Fatalf("emit %d = %+v, want %+v", i, g.Stmt, want[i])
				}
				if g.res != "check "+g.Text {
					t.Fatalf("emit %d result %q, want %q", i, g.res, "check "+g.Text)
				}
			}
			if n := int(checks.Load()); n != len(want) {
				t.Errorf("Check ran %d times, want once per statement (%d)", n, len(want))
			}
		})
	}
}

// admissions runs a pipeline over src with the first statement's Check
// parked, waits until want statements are admitted, gives the scanner
// time to overshoot, and returns how many were admitted by then; the run
// then completes and must emit every statement. The second worker checks
// each later statement as soon as it is handed out, so the statements
// that reached Check are the ones admitted.
func admissions(t *testing.T, src string, cfg Config, want int) int {
	t.Helper()
	var admitted atomic.Int64
	release := make(chan struct{})
	emittedN := 0
	p := Pipeline[bool]{
		Workers: 2,
		Check: func(st *Stmt) bool {
			admitted.Add(1)
			if st.Seq == 0 {
				<-release
			}
			return true
		},
		Emit: func(*Stmt, bool) { emittedN++ },
	}
	errc := make(chan error, 1)
	// The whole script is available to the first read, with EOF: under
	// the default read sizes the scanner never refills mid-statement for
	// short statements, so a MaxStatement below one statement's size
	// bounds only the pipeline here.
	in := &oneRead{src: src}
	go func() { errc <- p.Run(context.Background(), NewScanner(testLexer(t, streamTokens), in, cfg)) }()

	deadline := time.Now().Add(5 * time.Second)
	for admitted.Load() < int64(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	got := int(admitted.Load())
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(src, ";"); emittedN != n {
		t.Fatalf("emitted %d of %d statements", emittedN, n)
	}
	return got
}

// oneRead hands out its whole source with io.EOF in a single Read.
type oneRead struct{ src string }

func (r *oneRead) Read(p []byte) (int, error) {
	n := copy(p, r.src)
	r.src = r.src[n:]
	if r.src == "" {
		return n, io.EOF
	}
	return n, nil
}

func TestPipelineWindowBounds(t *testing.T) {
	// Every statement after the first is "\nSELECT aaa;", 12 bytes.
	src := strings.TrimSuffix(strings.Repeat("SELECT aaa;\n", 4*pipelineWindow), "\n")

	if n := admissions(t, src, Config{}, pipelineWindow); n != pipelineWindow {
		t.Errorf("admitted %d statements behind a parked one, want the window of %d", n, pipelineWindow)
	}
	// 11 + 12 + 12 bytes fit under 40; a fourth statement would not.
	if n := admissions(t, src, Config{MaxStatement: 40}, 3); n != 3 {
		t.Errorf("admitted %d statements under a 40-byte cap, want 3", n)
	}
	// A statement larger than the cap is still admitted, alone.
	if n := admissions(t, src, Config{MaxStatement: 5}, 1); n != 1 {
		t.Errorf("admitted %d statements under a 5-byte cap, want 1", n)
	}
	// The zero Config caps too, at the scanner's largest read: two
	// statements of a third of it fit, a third statement would not.
	big := strings.Repeat("SELECT '"+strings.Repeat("x", maxReadChunk/3)+"';", 4)
	if n := admissions(t, big, Config{}, 2); n != 2 {
		t.Errorf("admitted %d statements of %d bytes under the zero Config, want 2", n, len(big)/4)
	}
}

func TestPipelineStopsOnCancel(t *testing.T) {
	src := pipelineScript(2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var admitted atomic.Int64
	var got []Stmt
	p := Pipeline[struct{}]{
		Workers: 4,
		Check: func(*Stmt) struct{} {
			admitted.Add(1)
			return struct{}{}
		},
		Emit: func(st *Stmt, _ struct{}) {
			got = append(got, *st)
			if st.Seq == 10 {
				cancel()
			}
		},
	}
	sc := NewScanner(testLexer(t, streamTokens), strings.NewReader(src), Config{})
	if err := p.Run(ctx, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if len(got) < 11 || len(got) >= len(serialStmts(t, src)) {
		t.Fatalf("emitted %d statements; scanning should stop soon after the cancel", len(got))
	}
	if int(admitted.Load()) != len(got) {
		t.Errorf("admitted %d statements but emitted %d", admitted.Load(), len(got))
	}
	if !got[len(got)-1].HasMore {
		t.Error("the last statement before the cancel claims to end the script")
	}
}

func TestPipelineScanErrorEndsRun(t *testing.T) {
	src := pipelineScript(300)
	boom := errors.New("boom")
	var got []Stmt
	p := Pipeline[int]{
		Check: func(st *Stmt) int { return st.Seq },
		Emit:  func(st *Stmt, _ int) { got = append(got, *st) },
	}
	in := io.MultiReader(strings.NewReader(src[:len(src)/2]), iotest.ErrReader(boom))
	sc := NewScanner(testLexer(t, streamTokens), smallReads{in, 256}, Config{})
	if err := p.Run(context.Background(), sc); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the reader's error", err)
	}
	if len(got) == 0 || !got[len(got)-1].HasMore {
		t.Fatalf("statements before a read error must all be emitted, the last with HasMore: %d emitted", len(got))
	}
}

// Run returns only after its workers have exited.
func TestPipelineWorkersExit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := Pipeline[int]{
		Workers: 16,
		Check:   func(st *Stmt) int { return st.Seq },
		Emit:    func(*Stmt, int) {},
	}
	sc := NewScanner(testLexer(t, streamTokens), strings.NewReader(pipelineScript(100)), Config{})
	if err := p.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Run, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
