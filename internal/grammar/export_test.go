package grammar

// UnitTestGrammars are the grammars this package's unit tests are written
// over, for the reference-analysis comparison in oracle_test.go.
var UnitTestGrammars = []string{
	sampleGrammar,
	`grammar x ; a : B [ C | D ] E ;`,
	`grammar x ; start b ; a : B ; b : C ;`,
	`grammar t ; s : a B ; a : A | /* via optional */ ( C )? ;`,
	`grammar t ; s : A B | A C ; u : X | Y ;`,
	`grammar t ; e : e PLUS A | A ;`,
	`grammar t ; a : b X ; b : c Y | Z ; c : a W ;`,
	`grammar t ; e : A ( PLUS A )* ;`,
	`grammar t ; a : ( X )? a Y ;`,
	`grammar t ; s : a B ; a : A ;`,
	`grammar t ; s : missing B ;`,
	`grammar t ; s : C ;`,
	`grammar t ; s : a ; a : A ; orphan : B ;`,
	`grammar t ; s : A ; b : B ;`,
}
