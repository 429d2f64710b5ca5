package stream

import (
	"context"
	"errors"
	"io"
	"sync"
)

// pipelineWindow caps the statements a Pipeline has handed out but not
// yet emitted. Emission is in input order, so one slow statement (a
// rejected one runs Diagnose after Check) holds back every result behind
// it; the window is how far the scanner may run ahead meanwhile. Measured
// on a 2-core VM streaming never-repeating core scripts (10,000
// statements, 1 in 20 rejected) through the in-process /v1/stream
// handler, three interleaved rounds: a window of 4 left the workers idle
// behind each slow statement and gave 22–26 µs per statement, no better
// than the serial handler's 20–25 µs; 16 and 32 gave 17–21 µs; 64, 128
// and 256 all gave 13–17 µs. 64 is the smallest size on that plateau.
const pipelineWindow = 64

// Stmt is one statement as a Pipeline hands it to Check and Emit.
// The pipeline owns it: the pointer stays valid until Emit returns for it.
type Stmt struct {
	// Seq numbers the checked statements from 0 in input order.
	Seq int
	// Text, Off, Line and Col are the Statement fields of the same name:
	// the raw span (leading trivia and closing ';' included) and where it
	// starts in the script.
	Text      string
	Off       int
	Line, Col int
	// FirstLine is the script line of the statement's first token, or of
	// its lexical error when it has none: where the statement proper
	// starts, past its leading trivia.
	FirstLine int
	// HasMore reports that another statement follows this one, or that the
	// scan stopped with input left unread. Statement recovery hints
	// "statement skipped" on a failure exactly in that case.
	HasMore bool
}

// Pipeline checks the statements of one script on several goroutines and
// emits the results in input order. Run drives it.
type Pipeline[R any] struct {
	// Workers is the number of goroutines running Check; < 1 means 1.
	// More than the window could ever keep busy are not started.
	Workers int
	// Check computes one statement's result on a worker goroutine. Those
	// goroutines are the pipeline's own, so Check must recover its own
	// panics: one that escapes ends the process.
	Check func(*Stmt) R
	// Emit receives every result in input order, on the goroutine that
	// called Run.
	Emit func(*Stmt, R)
}

// slot is one window position: a statement and, once ready, its result.
type slot[R any] struct {
	st    Stmt
	res   R
	ready bool
}

// Run scans sc to the end, checks every statement and emits the results.
// The calling goroutine scans and holds one statement back, so that each
// statement knows whether a later one exists, then hands it to a worker;
// results are emitted on the calling goroutine as soon as all earlier ones
// are out. At most pipelineWindow statements are between hand-off and
// emission, and their Text bytes are capped at the scanner's largest read
// (4 MiB), or at sc's MaxStatement when that is smaller. One statement is
// always admitted, so the statements in flight hold at most the larger of
// the cap and one statement: memory stays set by the largest statement,
// as the scanner's own window does, not by the script. The trivia-only
// tail of a script is not a statement and is skipped.
//
// Scanning stops when ctx is done. Every statement scanned before that is
// still checked and emitted, and the held-back statement then counts as
// having more input after it. Run returns once all workers have exited,
// with ctx's error, the scanner's terminal error, or nil at end of input.
func (p *Pipeline[R]) Run(ctx context.Context, sc *Scanner) error {
	var ring [pipelineWindow]slot[R]
	// Both channels carry ring indexes of window statements, so a buffer of
	// pipelineWindow holds every send: handing out never blocks the
	// scanning goroutine, and finishing never blocks a worker.
	jobs := make(chan int, pipelineWindow)
	done := make(chan int, pipelineWindow)
	var wg sync.WaitGroup
	for range min(max(p.Workers, 1), pipelineWindow) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ring[i].res = p.Check(&ring[i].st)
				done <- i
			}
		}()
	}
	// Workers never block on done, so closing jobs always lets them exit.
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	var (
		head, n  int // ring index of the oldest unemitted statement; statements in the window
		inBytes  int // Text bytes of those statements
		maxBytes = maxReadChunk
		seq      int
	)
	if m := sc.cfg.MaxStatement; m > 0 && m < maxBytes {
		maxBytes = m
	}
	// collect marks finished jobs ready, first waiting for one if block.
	collect := func(block bool) {
		if block {
			ring[<-done].ready = true
		}
		for {
			select {
			case i := <-done:
				ring[i].ready = true
			default:
				return
			}
		}
	}
	// emitReady emits the longest ready prefix of the window.
	emitReady := func() {
		for n > 0 && ring[head].ready {
			s := &ring[head]
			p.Emit(&s.st, s.res)
			inBytes -= len(s.st.Text)
			*s = slot[R]{} // drop the Text and result references
			head = (head + 1) % pipelineWindow
			n--
		}
	}
	// Every statement in the window that is not ready is with a worker.
	// After emitReady the window's head is never ready, so whenever admit
	// (or the final drain) waits on done, a worker still owes a result and
	// the wait ends.
	admit := func(st Stmt) {
		for n == pipelineWindow || (n > 0 && inBytes+len(st.Text) > maxBytes) {
			collect(true)
			emitReady()
		}
		i := (head + n) % pipelineWindow
		st.Seq = seq
		ring[i].st = st
		seq++
		n++
		inBytes += len(st.Text)
		jobs <- i
		collect(false)
		emitReady()
	}

	var (
		pending Stmt
		held    bool
		scanErr error
	)
	for {
		if err := ctx.Err(); err != nil {
			scanErr = err
			break
		}
		st, err := sc.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				scanErr = err
			}
			break
		}
		if len(st.Tokens) == 0 && st.Err == nil {
			continue // trivia-only tail
		}
		if held {
			pending.HasMore = true
			admit(pending)
		}
		pending = Stmt{Text: st.Text, Off: st.Off, Line: st.Line, Col: st.Col, FirstLine: firstLine(st)}
		held = true
	}
	// The held-back statement is complete even when the scan stopped after
	// it; input was then left unread, so it is not the script's last.
	if held {
		pending.HasMore = scanErr != nil
		admit(pending)
	}
	for n > 0 {
		collect(true)
		emitReady()
	}
	return scanErr
}

// firstLine is Stmt.FirstLine for st. Tokens are valid only until the
// next Next, so it is read before the statement is held back.
func firstLine(st *Statement) int {
	switch {
	case len(st.Tokens) > 0:
		return st.Line + st.Tokens[0].Line - 1
	case st.Err != nil:
		return st.Line + st.Err.Line - 1
	}
	return st.Line
}
