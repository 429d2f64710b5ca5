package rt

// Greedy runs the greedy pass alone over src: whether it proves the whole
// input, and the node visits it spent.
func (p *Parser) Greedy(src string) (proved bool, visits int) {
	r := p.GetRun()
	defer p.PutRun(r)
	if p.Program == nil || p.scanAll(r, src) != nil {
		return false, 0
	}
	proved = r.prove(p.Program)
	return proved, greedyBudget*(len(r.toks)+1) - max(r.budget, 0)
}

// Packrat runs the packrat accept pass alone over src.
func (p *Parser) Packrat(src string) bool {
	r := p.GetRun()
	defer p.PutRun(r)
	if p.scanAll(r, src) != nil {
		return false
	}
	r.begin(p.Prods, false, false)
	return p.accepted(r)
}
