package rt

// Greedy runs the greedy pass alone over src: whether it proves the whole
// input, and the node visits it spent.
func (p *Parser) Greedy(src string) (proved bool, visits int) {
	r := p.GetRun()
	defer p.PutRun(r)
	if p.scanAll(r, src) != nil {
		return false, 0
	}
	proved = r.prove(p.Program)
	return proved, greedyBudget*(len(r.toks)+1) - max(r.budget, 0)
}

// Packrat runs the packrat pass alone over src, with expectations tracked
// as Check runs it, and reports whether it accepts.
func (p *Parser) Packrat(src string) bool {
	r := p.GetRun()
	defer p.PutRun(r)
	if p.scanAll(r, src) != nil {
		return false
	}
	return p.verdict(r) == nil
}
