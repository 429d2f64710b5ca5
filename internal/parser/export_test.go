package parser

// Hooks for the external test package (parser_test).
var ParseRecoverRef = parseRecoverRef

const (
	ScriptGrammar, ScriptTokens         = scriptGrammar, scriptTokens
	MiniSelectGrammar, MiniSelectTokens = miniSelectGrammar, miniSelectTokens
	RaceEnabled                         = raceEnabled
)
