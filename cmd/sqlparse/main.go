// Command sqlparse parses SQL under a chosen product-line dialect and
// prints the parse tree, the typed AST, per-statement analysis, or
// re-rendered SQL. Products are resolved through the shared product
// catalog (internal/product), so the dialect's parser is composed once
// per process no matter how often it is used.
//
// Usage:
//
//	sqlparse -dialect core 'SELECT a FROM t WHERE b = 1'
//	echo 'SELECT * FROM sensors SAMPLE PERIOD 1024' | sqlparse -dialect tinysql -tree
//	sqlparse -dialect warehouse -render 'select a from t union select b from u'
//	sqlparse -dialect core -json 'SELECT a FROM t'      # same wire format as sqlserved
//	sqlparse -dialect core -ast 'SELECT a FROM t'       # typed AST, stable wire schema
//	sqlparse -dialect core -analyze 'SELECT a FROM t'   # tables/columns/flags per statement
//	sqlparse -dialect core -format 'select  a,b from t' # canonical re-render (/v1/format)
//	sqlparse -dialect core -format -minify 'SELECT ( a + b ) FROM t'
//
// -ast and -analyze emit the sqlserved wire structures as JSON (want=ast
// and want=analysis respectively); -format mirrors POST /v1/format,
// refusing statements the typed AST only preserves as source text.
//
// With -json the result — tree, AST or diagnostics — is emitted in the
// serving subsystem's wire format (internal/server): the CLI and the HTTP
// service share one response encoder, so a query parsed at the terminal
// and one parsed over the network produce the same JSON.
//
// On a parse failure the human-readable mode reports every failing
// statement of the script — statement recovery resynchronises at top-level
// semicolons — each with a line:col position and a caret excerpt pointing
// at the offending span. -json carries the same list structurally in the
// response's "diagnostics" field.
//
// The CLI resolves the dialect's serving engine through the catalog: a
// preset with a pregenerated parser (internal/engine/generated) parses on
// the generated backend, anything else on the interpreted one — the same
// promotion rule sqlserved applies.
//
// Batch mode is the serving path: one cached engine, many statements, many
// goroutines. Stdin is streamed through the statement iterator
// (internal/stream) — statements are split at top-level semicolons, so a
// multi-gigabyte dump is checked with memory proportional to its largest
// statement, never slurped. Verdicts print in input order; per-statement
// parse errors go to stderr with the statement's line in the input, and
// the exit status is nonzero if any statement failed:
//
//	sqlparse -dialect core -batch -workers 8 < dump.sql
//	sqlparse -dialect core -batch -json < dump.sql   # NDJSON, one object per statement
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"sqlspl/internal/ast"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/lexer"
	"sqlspl/internal/parser"
	"sqlspl/internal/server"
	"sqlspl/internal/stream"
)

func main() {
	var (
		dialectN = flag.String("dialect", "core", "dialect: minimal|tinysql|scql|core|warehouse|full")
		tree     = flag.Bool("tree", false, "print the concrete parse tree")
		render   = flag.Bool("render", false, "print the SQL re-rendered from the typed AST")
		astOut   = flag.Bool("ast", false, "emit the typed AST as JSON (the sqlserved want=ast wire schema)")
		analyze  = flag.Bool("analyze", false, "emit per-statement analysis as JSON (the sqlserved want=analysis shape)")
		format   = flag.Bool("format", false, "re-render the input through the AST printers (POST /v1/format)")
		minify   = flag.Bool("minify", false, "with -format: whitespace-minimal output")
		jsonOut  = flag.Bool("json", false, "emit results as JSON in the sqlserved wire format")
		batch    = flag.Bool("batch", false, "batch mode: stream ';'-separated statements from stdin over one shared product")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parse goroutines in batch mode")
	)
	flag.Parse()
	if *minify && !*format {
		fatal(fmt.Errorf("-minify requires -format"))
	}
	if *format && *batch {
		fatal(fmt.Errorf("-format and -batch are mutually exclusive (format the whole script in one shot)"))
	}

	// Batch mode also needs the product's lexer (for the statement
	// iterator); Resolve hands back both halves of the catalog slot.
	prod, eng, err := dialect.Resolve(dialect.Name(*dialectN))
	if err != nil {
		fatal(err)
	}

	// The wire shape implied by the print flags: the default (statement
	// dump) corresponds to the AST shape. -ast and -analyze are JSON by
	// nature — they imply -json.
	want := server.WantAST
	switch {
	case *tree:
		want = server.WantTree
	case *render:
		want = server.WantRender
	case *analyze:
		want = server.WantAnalysis
		*jsonOut = true
	case *astOut:
		*jsonOut = true
	}

	if *batch {
		rejected, err := runBatch(eng, prod.Parser.Lexer(), os.Stdin, os.Stdout, *workers, *jsonOut, want)
		if err != nil {
			fatal(err)
		}
		if rejected > 0 {
			os.Exit(1)
		}
		return
	}

	sql := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(sql) == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		sql = string(data)
	}
	if strings.TrimSpace(sql) == "" {
		fatal(fmt.Errorf("no SQL given (argument or stdin)"))
	}

	if *format {
		resp := server.FormatOutcome(eng, sql, *minify)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp); err != nil {
				fatal(err)
			}
		} else if resp.OK {
			fmt.Println(resp.SQL)
		} else {
			fmt.Fprintln(os.Stderr, "sqlparse:", resp.Error.Message)
			for _, d := range resp.Diagnostics {
				fmt.Fprintln(os.Stderr, "sqlparse:", d.Message)
			}
		}
		if !resp.OK {
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		// One parse, one JSON document — the shared encoder does the work.
		// Diagnostics ride inside the document; the exit status still
		// reports the verdict for scripting.
		resp := server.Outcome(eng, sql, want)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatal(err)
		}
		if !resp.OK {
			os.Exit(1)
		}
		return
	}

	parseTree, err := eng.Parse(sql)
	if err != nil {
		fmt.Fprintln(os.Stderr, renderFailure(eng, sql))
		os.Exit(1)
	}
	if *tree {
		fmt.Print(parseTree.Dump())
		return
	}
	script, err := ast.NewBuilder(nil).Build(parseTree)
	if err != nil {
		fatal(err)
	}
	if *render {
		fmt.Println(script.SQL())
		return
	}
	for i, st := range script.Statements {
		fmt.Printf("-- statement %d: %T\n%s\n", i+1, st, st.SQL())
	}
}

// runBatch streams ';'-separated statements from in through the ordered
// statement pipeline (stream.Pipeline) and parses them over the shared
// engine with the given number of goroutines — the catalog's serving path:
// the engine was resolved (or cache-hit) once, and it is safe for
// concurrent use. Memory stays proportional to the largest statement plus
// the pipeline's bounded window, never the input. Verdicts print in input
// order regardless of completion order; per-statement parse errors go to
// stderr and the returned count makes the exit status nonzero when any
// statement failed. With jsonOut the verdict lines are NDJSON in the
// sqlserved wire format (one compact ParseResponse per statement) and the
// summary moves to stderr so stdout stays machine-readable.
func runBatch(eng engine.Engine, lx *lexer.Lexer, in io.Reader, out io.Writer, workers int, jsonOut bool, want string) (rejected int, err error) {
	if workers < 1 {
		workers = 1
	}
	var (
		accepted int
		emitErr  error
	)
	p := stream.Pipeline[*server.ParseResponse]{
		Workers: workers,
		Check: func(st *stream.Stmt) *server.ParseResponse {
			// at locates the span in the whole input so failure diagnostics
			// are rebased to whole-input coordinates, matching a single-shot
			// parse of the same script.
			at := server.Position{Off: st.Off, Line: st.Line, Col: st.Col, HasMore: st.HasMore}
			if jsonOut {
				return server.OutcomeAt(eng, st.Text, want, at)
			}
			// Verdict-only: Check gives Parse's error from the same scan
			// and tracked packrat pass without building a tree.
			r := &server.ParseResponse{Dialect: eng.Info().Product}
			if err := eng.Check(st.Text); err != nil {
				r.Error = server.EncodeDiagnostic(server.RelocateError(err, at))
			} else {
				r.OK = true
			}
			return r
		},
		Emit: func(st *stream.Stmt, r *server.ParseResponse) {
			if r.OK {
				accepted++
			} else {
				rejected++
				fmt.Fprintf(os.Stderr, "sqlparse: line %d: %s\n", st.FirstLine, r.Error.Message)
			}
			if emitErr != nil {
				return // keep counting, first error wins
			}
			switch {
			case jsonOut:
				data, err := json.Marshal(r)
				if err != nil {
					emitErr = err
					return
				}
				fmt.Fprintf(out, "%s\n", data)
			case r.OK:
				fmt.Fprintf(out, "%d: ACCEPT\n", st.Seq+1)
			default:
				fmt.Fprintf(out, "%d: REJECT %s\n", st.Seq+1, r.Error.Message)
			}
		},
	}

	start := time.Now()
	if err := p.Run(context.Background(), stream.NewScanner(lx, in, stream.Config{})); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if emitErr != nil {
		return 0, emitErr
	}
	n := accepted + rejected
	if n == 0 {
		return 0, fmt.Errorf("batch mode: no queries on stdin")
	}
	summary := fmt.Sprintf("-- %d statements: %d accepted, %d rejected (dialect %s, %d workers, %s, %.0f q/s)\n",
		n, accepted, rejected, eng.Info().Product, workers,
		elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds())
	if jsonOut {
		fmt.Fprint(os.Stderr, summary)
	} else {
		fmt.Fprint(out, summary)
	}
	return rejected, nil
}

// renderFailure runs statement recovery over a rejected script and renders
// every diagnostic with a caret excerpt — all the errors, not just the
// farthest failure the parse itself reported. (Generated engines delegate
// Diagnose to the interpreted parser; the output is identical.)
func renderFailure(eng engine.Engine, sql string) string {
	diags := eng.Diagnose(sql)
	if len(diags) == 0 {
		// Parse failed but recovery found nothing to report; never fail
		// silently.
		return "sqlparse: parse failed"
	}
	return parser.RenderDiagnostics(sql, diags)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlparse:", err)
	os.Exit(1)
}
