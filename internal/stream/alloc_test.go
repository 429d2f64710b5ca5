package stream

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// allocScript is a script of n distinct statements of varied shape, about
// 47 bytes each.
func allocScript(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "SELECT a, b, c FROM t%d WHERE k = %d;\n", i, i*7)
		case 1:
			fmt.Fprintf(&b, "SELECT name, email FROM users WHERE id <= %d;\n", i)
		default:
			fmt.Fprintf(&b, "SELECT x FROM (orders) WHERE s = 'v%d' -- note\n;\n", i)
		}
	}
	return b.String()
}

// streamAll scans src through a Scanner with ordinary reads and returns
// the bytes the scan allocated and the token buffer's final capacity.
func streamAll(t *testing.T, src string) (allocated uint64, tokenCap int) {
	t.Helper()
	lx := testLexer(t, streamTokens)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := NewScanner(lx, strings.NewReader(src), Config{})
	for {
		st, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if st.Err != nil {
			t.Fatalf("statement at %d: %v", st.Off, st.Err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, cap(sc.toks)
}

// TestScannerAllocationBudget: streaming a script costs a fixed number of
// bytes per statement — the window's copies of each read — and the token
// buffer holds the statement in progress plus one scan increment, so its
// capacity does not grow with the script.
func TestScannerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		statements     = 3000
		budgetPerStmt  = 256 // bytes
		smallScriptLen = statements / 10
	)
	src := allocScript(statements)
	allocated, tokenCap := streamAll(t, src)
	_, smallCap := streamAll(t, allocScript(smallScriptLen))
	perStmt := float64(allocated) / statements
	t.Logf("%d statements, %d bytes: %.0f B allocated per statement; token buffer capacity %d (%d for %d statements)",
		statements, len(src), perStmt, tokenCap, smallCap, smallScriptLen)
	if perStmt > budgetPerStmt {
		t.Errorf("streaming allocates %.0f B per statement, budget %d", perStmt, budgetPerStmt)
	}
	if tokenCap > smallCap {
		t.Errorf("token buffer capacity grows with the script: %d tokens after %d statements, %d after %d",
			tokenCap, statements, smallCap, smallScriptLen)
	}
}
