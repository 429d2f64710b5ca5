package codegen

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"sqlspl/internal/grammar"
)

// emitter renders the specialized straight-line parse functions for one
// composed grammar: a pN function per production (memoised, FIRST-predicted),
// an sN scalar function per deterministic token/nonterminal chain, and eN
// set functions for composite sub-expressions. FIRST sets become
// deduplicated package-level Bits literals and terminals are interned to
// dense ids at generation time, so the generated parser has no runtime
// table-construction step and never compares token names on the hot path.
//
// The emitted code is behaviourally identical to the interpreted engine: it
// replays parseNT / parseExpr (internal/parser) with the grammar
// constant-folded into the control flow — per-alternative predict
// bitsets, inlined token-id matches, hoisted single-alternative
// productions, and scalar position threading wherever an expression can
// yield at most one result.
type emitter struct {
	g       *grammar.Grammar
	an      *grammar.Analysis
	prodIdx map[string]int
	// refs are the referenced terminals; a terminal's id is its index.
	refs  []string
	tokID map[string]int32
	words int
	// det marks productions with a single alternative whose body is a
	// deterministic chain (tokens, det nonterminals, sequences thereof):
	// such productions yield at most one result and parse scalar-style.
	det []bool

	prods bytes.Buffer // pN production functions
	subs  bytes.Buffer // sN / eN helper functions
	vars  bytes.Buffer // deduplicated bitset + FIRST-name literals

	scalarN int
	setN    int

	bitsetByKey map[string]string
	namesByKey  map[string]string
}

func newEmitter(g *grammar.Grammar) *emitter {
	em := &emitter{
		g:           g,
		an:          grammar.Analyze(g),
		prodIdx:     map[string]int{},
		tokID:       map[string]int32{},
		bitsetByKey: map[string]string{},
		namesByKey:  map[string]string{},
	}
	for i, p := range g.Productions() {
		em.prodIdx[p.Name] = i
	}
	em.refs = g.ReferencedTokens()
	for i, t := range em.refs {
		em.tokID[t] = int32(i)
	}
	em.words = (len(em.refs) + 63) / 64
	if em.words == 0 {
		em.words = 1
	}
	em.computeDet()
	return em
}

func (em *emitter) idOf(name string) int32 {
	if id, ok := em.tokID[name]; ok {
		return id
	}
	return -1
}

// computeDet runs the deterministic-production fixed point: a production is
// det when its single alternative is built only from tokens, det
// nonterminals, and sequences of those.
func (em *emitter) computeDet() {
	em.det = make([]bool, em.g.Len())
	for changed := true; changed; {
		changed = false
		for i, p := range em.g.Productions() {
			if em.det[i] {
				continue
			}
			alts := p.Alternatives()
			if len(alts) == 1 && em.detExpr(alts[0]) {
				em.det[i] = true
				changed = true
			}
		}
	}
}

// detExpr reports whether e yields at most one result at any position.
func (em *emitter) detExpr(e grammar.Expr) bool {
	switch x := e.(type) {
	case grammar.Tok:
		return true
	case grammar.NT:
		idx, ok := em.prodIdx[x.Name]
		return ok && em.det[idx]
	case grammar.Seq:
		for _, it := range x.Items {
			if !em.detExpr(it) {
				return false
			}
		}
		return true
	}
	return false
}

// exprComment renders e for a source comment, truncated.
func exprComment(e grammar.Expr) string {
	s := e.String()
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > 72 {
		s = s[:69] + "..."
	}
	return s
}

// flattenSeq appends e's deterministic atoms (tokens and nonterminal
// references) in derivation order, flattening nested sequences.
func flattenSeq(e grammar.Expr, atoms *[]grammar.Expr) {
	if s, ok := e.(grammar.Seq); ok {
		for _, it := range s.Items {
			flattenSeq(it, atoms)
		}
		return
	}
	*atoms = append(*atoms, e)
}

// predictVars interns e's FIRST set as a bitset literal plus the matching
// sorted name list (for predict-miss diagnostics), deduplicated across the
// whole grammar. A nullable expression is never pruned: guard == "".
func (em *emitter) predictVars(e grammar.Expr) (guard, names string, nullable bool) {
	nullable, first := em.an.FirstOfExpr(e)
	if nullable {
		return "", "", true
	}
	words := make([]uint64, em.words)
	ns := make([]string, 0, len(first))
	for t := range first {
		ns = append(ns, t)
		if id, ok := em.tokID[t]; ok {
			words[id>>6] |= 1 << (uint32(id) & 63)
		}
	}
	sort.Strings(ns)
	bv := em.bitsVar(words)
	nkey := strings.Join(ns, "\x00")
	nv, ok := em.namesByKey[nkey]
	if !ok {
		nv = fmt.Sprintf("ns%d", len(em.namesByKey))
		em.namesByKey[nkey] = nv
		fmt.Fprintf(&em.vars, "var %s = []string{", nv)
		for i, n := range ns {
			if i > 0 {
				em.vars.WriteString(", ")
			}
			fmt.Fprintf(&em.vars, "%q", n)
		}
		em.vars.WriteString("}\n")
	}
	return bv, nv, false
}

// bitsVar interns a FIRST set as a Bits literal, deduplicated across the
// whole grammar, and returns its name.
func (em *emitter) bitsVar(words []uint64) string {
	key := fmt.Sprint(words)
	if v, ok := em.bitsetByKey[key]; ok {
		return v
	}
	v := fmt.Sprintf("bs%d", len(em.bitsetByKey))
	em.bitsetByKey[key] = v
	fmt.Fprintf(&em.vars, "var %s = Bits{", v)
	for i, w := range words {
		if i > 0 {
			em.vars.WriteString(", ")
		}
		fmt.Fprintf(&em.vars, "%#x", w)
	}
	em.vars.WriteString("}\n")
	return v
}

// scalarFn emits a deterministic straight-line parser for e: a chain of
// token-id matches and single-result nonterminal calls threading a scalar
// position, bailing out on the first mismatch.
func (em *emitter) scalarFn(e grammar.Expr) string {
	name := fmt.Sprintf("s%d", em.scalarN)
	em.scalarN++
	var atoms []grammar.Expr
	flattenSeq(e, &atoms)
	var w bytes.Buffer
	fmt.Fprintf(&w, "\n// %s scalar-parses %s\nfunc %s(r *Run, pos int) (int, []*Tree, bool) {\nvar f []*Tree\n", name, exprComment(e), name)
	for k, a := range atoms {
		switch x := a.(type) {
		case grammar.Tok:
			fmt.Fprintf(&w, "if r.ID(pos) != %d { // %s\nr.Fail(pos, %q)\nreturn 0, nil, false\n}\nf = r.Merge(f, r.LeafForest(pos))\npos++\n", em.idOf(x.Name), x.Name, x.Name)
		case grammar.NT:
			v := fmt.Sprintf("q%d", k)
			fmt.Fprintf(&w, "%s := p%d(r, pos) // %s\nif len(%s) == 0 {\nreturn 0, nil, false\n}\nf = r.Merge(f, %s[0].Forest)\npos = %s[0].End\n", v, em.prodIdx[x.Name], x.Name, v, v, v)
		default:
			panic(fmt.Sprintf("codegen: non-deterministic atom %T in scalar emission", a))
		}
	}
	w.WriteString("return pos, f, true\n}\n")
	em.subs.Write(w.Bytes())
	return name
}

// setAppend returns statements appending e's results at position pos to the
// result slice dst, choosing the cheapest faithful form: inlined token
// match, direct production call, scalar chain, inline repeat, or a
// dedicated eN set function for composite shapes.
func (em *emitter) setAppend(e grammar.Expr, pos, dst string) string {
	var w bytes.Buffer
	switch x := e.(type) {
	case grammar.Tok:
		fmt.Fprintf(&w, "if r.ID(%s) == %d { // %s\n%s = append(%s, Result{End: %s + 1, Forest: r.LeafForest(%s)})\n} else {\nr.Fail(%s, %q)\n}\n", pos, em.idOf(x.Name), x.Name, dst, dst, pos, pos, pos, x.Name)
		return w.String()
	case grammar.NT:
		fmt.Fprintf(&w, "%s = append(%s, p%d(r, %s)...) // %s\n", dst, dst, em.prodIdx[x.Name], pos, x.Name)
		return w.String()
	}
	if em.detExpr(e) {
		fmt.Fprintf(&w, "if end, bf, ok := %s(r, %s); ok {\n%s = append(%s, Result{End: end, Forest: bf})\n}\n", em.scalarFn(e), pos, dst, dst)
		return w.String()
	}
	if st, ok := e.(grammar.Star); ok && !em.detExpr(st.Body) {
		fmt.Fprintf(&w, "%s = r.Repeat(%s, true, %s, %s)\n", dst, pos, dst, em.setFn(st.Body))
		return w.String()
	}
	if pl, ok := e.(grammar.Plus); ok && !em.detExpr(pl.Body) {
		fmt.Fprintf(&w, "%s = r.Repeat(%s, false, %s, %s)\n", dst, pos, dst, em.setFn(pl.Body))
		return w.String()
	}
	fmt.Fprintf(&w, "%s = %s(r, %s, %s)\n", dst, em.setFn(e), pos, dst)
	return w.String()
}

// setFn emits a set-mode parse function for composite expression e.
func (em *emitter) setFn(e grammar.Expr) string {
	name := fmt.Sprintf("e%d", em.setN)
	em.setN++
	body := em.setFnBody(e)
	var w bytes.Buffer
	fmt.Fprintf(&w, "\n// %s set-parses %s\nfunc %s(r *Run, pos int, dst []Result) []Result {\n%s}\n", name, exprComment(e), name, body)
	em.subs.Write(w.Bytes())
	return name
}

func (em *emitter) setFnBody(e grammar.Expr) string {
	var w bytes.Buffer
	if em.detExpr(e) {
		w.WriteString(em.setAppend(e, "pos", "dst"))
		w.WriteString("return dst\n")
		return w.String()
	}
	switch x := e.(type) {
	case grammar.Seq:
		em.seqBody(&w, x.Items)
	case grammar.Choice:
		em.choiceBody(&w, x.Alts)
	case grammar.Opt:
		em.optBody(&w, x.Body)
	case grammar.Star:
		em.repeatBody(&w, x.Body, true)
	case grammar.Plus:
		em.repeatBody(&w, x.Body, false)
	default:
		w.WriteString(em.setAppend(e, "pos", "dst"))
		w.WriteString("return dst\n")
	}
	return w.String()
}

// itemNeedsTmp reports whether a sequence item parses through a shared tmp
// scratch list (composite shapes) rather than an inlined or scalar form.
func (em *emitter) itemNeedsTmp(it grammar.Expr) bool {
	switch it.(type) {
	case grammar.Tok, grammar.NT:
		return false
	}
	return !em.detExpr(it)
}

// seqBody unrolls a non-deterministic sequence: the maximal deterministic
// prefix threads a scalar position with early bail-out, then each remaining
// item advances the cur/next result-set pair exactly as the interpreted
// engine's cSeq does.
func (em *emitter) seqBody(w *bytes.Buffer, items []grammar.Expr) {
	k := 0
	for k < len(items) && em.detExpr(items[k]) {
		k++
	}
	var atoms []grammar.Expr
	for _, it := range items[:k] {
		flattenSeq(it, &atoms)
	}
	w.WriteString("p := pos\nvar f []*Tree\n")
	for ai, a := range atoms {
		switch x := a.(type) {
		case grammar.Tok:
			fmt.Fprintf(w, "if r.ID(p) != %d { // %s\nr.Fail(p, %q)\nreturn dst\n}\nf = r.Merge(f, r.LeafForest(p))\np++\n", em.idOf(x.Name), x.Name, x.Name)
		case grammar.NT:
			v := fmt.Sprintf("q%d", ai)
			fmt.Fprintf(w, "%s := p%d(r, p) // %s\nif len(%s) == 0 {\nreturn dst\n}\nf = r.Merge(f, %s[0].Forest)\np = %s[0].End\n", v, em.prodIdx[x.Name], x.Name, v, v, v)
		}
	}
	needTmp := false
	for _, it := range items[k:] {
		if em.itemNeedsTmp(it) {
			needTmp = true
		}
	}
	w.WriteString("cur := r.GetScratch()\nnext := r.GetScratch()\n")
	if needTmp {
		w.WriteString("tmp := r.GetScratch()\n")
	}
	w.WriteString("cur = append(cur, Result{End: p, Forest: f})\n")
	for _, it := range items[k:] {
		fmt.Fprintf(w, "if len(cur) != 0 { // %s\nnext = next[:0]\n", exprComment(it))
		em.seqItem(w, it)
		w.WriteString("cur, next = next, cur\n}\n")
	}
	w.WriteString("dst = append(dst, cur...)\n")
	if needTmp {
		w.WriteString("r.PutScratch(tmp)\n")
	}
	w.WriteString("r.PutScratch(next)\nr.PutScratch(cur)\nreturn dst\n")
}

// seqItem advances every result in cur through one sequence item into next,
// deduplicating end positions on insert.
func (em *emitter) seqItem(w *bytes.Buffer, it grammar.Expr) {
	switch x := it.(type) {
	case grammar.Tok:
		fmt.Fprintf(w, "for _, c := range cur {\nif r.ID(c.End) == %d {\nif !HasEnd(next, c.End+1) {\nnext = append(next, Result{End: c.End + 1, Forest: r.Merge(c.Forest, r.LeafForest(c.End))})\n}\n} else {\nr.Fail(c.End, %q)\n}\n}\n", em.idOf(x.Name), x.Name)
		return
	case grammar.NT:
		fmt.Fprintf(w, "for _, c := range cur {\nfor _, res := range p%d(r, c.End) {\nif HasEnd(next, res.End) {\ncontinue\n}\nnext = append(next, Result{End: res.End, Forest: r.Merge(c.Forest, res.Forest)})\n}\n}\n", em.prodIdx[x.Name])
		return
	}
	if em.detExpr(it) {
		fmt.Fprintf(w, "for _, c := range cur {\nif end, bf, ok := %s(r, c.End); ok && !HasEnd(next, end) {\nnext = append(next, Result{End: end, Forest: r.Merge(c.Forest, bf)})\n}\n}\n", em.scalarFn(it))
		return
	}
	call := ""
	switch y := it.(type) {
	case grammar.Star:
		if !em.detExpr(y.Body) {
			call = fmt.Sprintf("r.Repeat(c.End, true, tmp[:0], %s)", em.setFn(y.Body))
		}
	case grammar.Plus:
		if !em.detExpr(y.Body) {
			call = fmt.Sprintf("r.Repeat(c.End, false, tmp[:0], %s)", em.setFn(y.Body))
		}
	}
	if call == "" {
		call = fmt.Sprintf("%s(r, c.End, tmp[:0])", em.setFn(it))
	}
	fmt.Fprintf(w, "for _, c := range cur {\ntmp = %s\nfor _, res := range tmp {\nif HasEnd(next, res.End) {\ncontinue\n}\nnext = append(next, Result{End: res.End, Forest: r.Merge(c.Forest, res.Forest)})\n}\n}\n", call)
}

// choiceBody unrolls a nested choice with per-alternative FIRST prediction,
// mirroring the interpreted engine's cChoice.
func (em *emitter) choiceBody(w *bytes.Buffer, alts []grammar.Expr) {
	type pred struct {
		guard, names string
		nullable     bool
	}
	preds := make([]pred, len(alts))
	needLa := false
	for i, a := range alts {
		g, n, nullable := em.predictVars(a)
		preds[i] = pred{guard: g, names: n, nullable: nullable}
		if !nullable {
			needLa = true
		}
	}
	w.WriteString("start := len(dst)\n")
	if needLa {
		w.WriteString("la := r.ID(pos)\n")
	}
	for i, a := range alts {
		fmt.Fprintf(w, "// alt %d: %s\n", i, exprComment(a))
		if preds[i].nullable {
			w.WriteString("{\n")
		} else {
			fmt.Fprintf(w, "if %s.Has(la) {\n", preds[i].guard)
		}
		w.WriteString("altStart := len(dst)\n")
		w.WriteString(em.setAppend(a, "pos", "dst"))
		w.WriteString("keep := altStart\nfor i := altStart; i < len(dst); i++ {\nif HasEnd(dst[start:keep], dst[i].End) {\ncontinue\n}\ndst[keep] = dst[i]\nkeep++\n}\ndst = dst[:keep]\n")
		if preds[i].nullable {
			w.WriteString("}\n")
		} else {
			fmt.Fprintf(w, "} else {\nr.PredictMiss(pos, %s)\n}\n", preds[i].names)
		}
	}
	w.WriteString("return dst\n")
}

// optBody parses the body, then adds the epsilon result unless the body
// already produced a match ending at pos.
func (em *emitter) optBody(w *bytes.Buffer, body grammar.Expr) {
	w.WriteString("start := len(dst)\n")
	w.WriteString(em.setAppend(body, "pos", "dst"))
	w.WriteString("if HasEnd(dst[start:], pos) {\nreturn dst\n}\nreturn append(dst, Result{End: pos})\n")
}

// repeatBody emits Star/Plus. A deterministic body yields at most one
// result per step, so the repetition specializes to a straight loop with a
// strictly advancing position; otherwise it delegates to the generic
// frontier-exploring repeat with the body as an emitted function.
func (em *emitter) repeatBody(w *bytes.Buffer, body grammar.Expr, allowEmpty bool) {
	if em.detExpr(body) {
		fn := em.scalarFn(body)
		w.WriteString("start := len(dst)\n")
		if allowEmpty {
			w.WriteString("dst = append(dst, Result{End: pos})\n")
		}
		w.WriteString("p := pos\nvar f []*Tree\nfor {\n")
		fmt.Fprintf(w, "end, bf, ok := %s(r, p)\nif !ok || end <= p {\nbreak\n}\n", fn)
		w.WriteString("f = r.Merge(f, bf)\ndst = append(dst, Result{End: end, Forest: f})\np = end\n}\nSortByEndDesc(dst[start:])\nreturn dst\n")
		return
	}
	fmt.Fprintf(w, "return r.Repeat(pos, %v, dst, %s)\n", allowEmpty, em.setFn(body))
}

// emitProductions writes one pN function per production into em.prods,
// generating scalar/set helpers and predict literals on demand.
func (em *emitter) emitProductions() {
	for i, p := range em.g.Productions() {
		em.emitProduction(i, p)
	}
}

func (em *emitter) emitProduction(i int, p *grammar.Production) {
	alts := p.Alternatives()
	type altInfo struct {
		det          bool
		guard, names string
	}
	infos := make([]altInfo, len(alts))
	needLa, needTmp := false, false
	for j, a := range alts {
		guard, names, nullable := em.predictVars(a)
		det := em.detExpr(a)
		infos[j] = altInfo{det: det, guard: guard, names: names}
		if nullable {
			infos[j].guard = ""
		} else {
			needLa = true
		}
		if len(alts) > 1 && !det && em.itemNeedsTmp(a) {
			needTmp = true
		}
	}
	single := len(alts) == 1
	w := &em.prods
	fmt.Fprintf(w, "\n// p%d parses production %s.\nfunc p%d(r *Run, pos int) []Result {\n", i, p.Name, i)
	fmt.Fprintf(w, "slot, memo, hit := r.Memo(%d, pos)\nif hit {\nreturn memo\n}\nout := r.GetScratch()\n", i)
	if needTmp {
		w.WriteString("tmp := r.GetScratch()\n")
	}
	if needLa {
		w.WriteString("la := r.ID(pos)\n")
	}
	for j, a := range alts {
		if !single {
			fmt.Fprintf(w, "// alt %d: %s\n", j, exprComment(a))
		}
		guarded := infos[j].guard != ""
		if guarded {
			fmt.Fprintf(w, "if %s.Has(la) {\n", infos[j].guard)
		}
		em.prodAlt(w, p.Name, a, infos[j].det, single)
		if guarded {
			fmt.Fprintf(w, "} else {\nr.PredictMiss(pos, %s)\n}\n", infos[j].names)
		}
	}
	if !(single && infos[0].det) {
		w.WriteString("SortByEndDesc(out)\n")
	}
	if needTmp {
		w.WriteString("r.PutScratch(tmp)\n")
	}
	w.WriteString("return r.Memoize(slot, out)\n}\n")
}

// prodAlt emits one top-level alternative's contribution to out, wrapping
// each distinct end's forest in the production node. The sole alternative
// of a production appends straight into out (no cross-alternative dedup is
// needed: a single alternative's ends are already distinct).
func (em *emitter) prodAlt(w *bytes.Buffer, name string, a grammar.Expr, det, single bool) {
	if det {
		cond := "ok && !HasEnd(out, end)"
		if single {
			cond = "ok"
		}
		fmt.Fprintf(w, "if end, bf, ok := %s(r, pos); %s {\nout = append(out, Result{End: end, Forest: r.NodeForest(%q, bf)})\n}\n", em.scalarFn(a), cond, name)
		return
	}
	if single {
		w.WriteString(em.setAppend(a, "pos", "out"))
		fmt.Fprintf(w, "r.WrapAll(%q, out)\n", name)
		return
	}
	switch x := a.(type) {
	case grammar.Tok:
		fmt.Fprintf(w, "if r.ID(pos) == %d { // %s\nif !HasEnd(out, pos+1) {\nout = append(out, Result{End: pos + 1, Forest: r.NodeForest(%q, r.LeafForest(pos))})\n}\n} else {\nr.Fail(pos, %q)\n}\n", em.idOf(x.Name), x.Name, name, x.Name)
		return
	case grammar.NT:
		fmt.Fprintf(w, "for _, res := range p%d(r, pos) { // %s\nif HasEnd(out, res.End) {\ncontinue\n}\nout = append(out, Result{End: res.End, Forest: r.NodeForest(%q, res.Forest)})\n}\n", em.prodIdx[x.Name], x.Name, name)
		return
	}
	call := ""
	switch y := a.(type) {
	case grammar.Star:
		if !em.detExpr(y.Body) {
			call = fmt.Sprintf("r.Repeat(pos, true, tmp[:0], %s)", em.setFn(y.Body))
		}
	case grammar.Plus:
		if !em.detExpr(y.Body) {
			call = fmt.Sprintf("r.Repeat(pos, false, tmp[:0], %s)", em.setFn(y.Body))
		}
	}
	if call == "" {
		call = fmt.Sprintf("%s(r, pos, tmp[:0])", em.setFn(a))
	}
	fmt.Fprintf(w, "tmp = %s\nfor _, res := range tmp {\nif HasEnd(out, res.End) {\ncontinue\n}\nout = append(out, Result{End: res.End, Forest: r.NodeForest(%q, res.Forest)})\n}\n", call, name)
}
