package sql2003

import (
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/core"
	"sqlspl/internal/feature"
	"sqlspl/internal/sentence"
)

// productCase builds a product from a seed selection (plus mechanical
// closure) and checks accepted/rejected samples. It is the broad wiring
// test for the decomposition: every statement class gets at least one
// minimal product here.
type productCase struct {
	name   string
	seed   []string
	start  string // optional start override
	accept []string
	reject []string
}

// queryCore is the recurring query substrate for seeds that need SELECT.
var queryCore = []string{
	"query_specification", "select_list", "select_columns", "derived_column",
	"table_expression", "from",
	"value_expression", "identifier_chain", "literal", "numeric_literal",
}

// condCore adds WHERE-style conditions.
var condCore = []string{
	"search_condition", "predicate", "comparison", "op_equals",
}

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestStatementClassProducts(t *testing.T) {
	stmt := []string{"sql_script"}
	cases := []productCase{
		{
			name: "table_definition",
			seed: cat(stmt, []string{"table_definition", "data_type", "type_parameters",
				"type_integer", "type_varchar", "default_clause",
				"literal", "numeric_literal"}),
			accept: []string{
				"CREATE TABLE t ( a INTEGER, b VARCHAR(10) DEFAULT 5 )",
				"CREATE TABLE t ( a INT )",
			},
			reject: []string{
				"CREATE TABLE t ( a BLOB )",             // type not selected
				"CREATE TABLE t ( a INTEGER NOT NULL )", // constraints not selected
				"DROP TABLE t",                          // drop not selected
			},
		},
		{
			name: "column_constraints",
			seed: cat(stmt, condCore, []string{"table_definition", "data_type",
				"type_parameters", "type_integer",
				"column_constraint", "unique_column_constraint", "references_constraint",
				"check_constraint", "value_expression", "identifier_chain",
				"literal", "numeric_literal"}),
			accept: []string{
				"CREATE TABLE t ( a INTEGER NOT NULL UNIQUE )",
				"CREATE TABLE t ( a INTEGER PRIMARY KEY, b INTEGER REFERENCES u (x) ON DELETE CASCADE )",
				"CREATE TABLE t ( a INTEGER CHECK ( a = 1 ) )",
				"CREATE TABLE t ( a INTEGER CONSTRAINT nn NOT NULL )",
			},
			reject: []string{
				"CREATE TABLE t ( a INTEGER, FOREIGN KEY (a) REFERENCES u )", // table constraints not selected
			},
		},
		{
			name: "view",
			seed: cat(stmt, queryCore, []string{"view_definition", "query_statement_f",
				"query_expression"}),
			accept: []string{
				"CREATE VIEW v AS SELECT a FROM t",
				"CREATE RECURSIVE VIEW v ( a ) AS SELECT a FROM t WITH CHECK OPTION",
			},
			reject: []string{"DROP VIEW v"},
		},
		{
			name: "domain",
			seed: cat(stmt, condCore, []string{"domain_definition", "data_type",
				"type_parameters", "type_decimal", "value_expression",
				"identifier_chain", "literal", "numeric_literal"}),
			accept: []string{
				"CREATE DOMAIN money AS DECIMAL(10, 2)",
				"CREATE DOMAIN positive AS DECIMAL CHECK ( a = 1 )",
			},
		},
		{
			name: "sequence",
			seed: cat(stmt, []string{"sequence_definition", "identifier_chain",
				"literal", "numeric_literal"}),
			accept: []string{
				"CREATE SEQUENCE s",
				"CREATE SEQUENCE s START WITH 1 INCREMENT BY -2 MAXVALUE 100 NO CYCLE",
			},
		},
		{
			name: "trigger",
			seed: cat(stmt, queryCore, condCore, []string{"trigger_definition",
				"update_statement", "query_statement_f", "query_expression"}),
			accept: []string{
				"CREATE TRIGGER trg AFTER INSERT ON t UPDATE log SET n = 1",
				"CREATE TRIGGER trg BEFORE UPDATE OF a ON t FOR EACH ROW WHEN ( b = 1 ) UPDATE log SET n = 2",
			},
		},
		{
			name: "routine",
			seed: cat(stmt, queryCore, []string{"routine_definition", "data_type",
				"type_parameters", "type_integer", "query_statement_f", "query_expression"}),
			accept: []string{
				"CREATE FUNCTION f ( IN x INTEGER ) RETURNS INTEGER RETURN x + 1",
				"CREATE PROCEDURE p ( ) SELECT a FROM t",
				"CREATE PROCEDURE p ( x INTEGER ) BEGIN SELECT a FROM t ; END",
			},
		},
		{
			name: "schema",
			seed: cat(stmt, []string{"schema_definition", "identifier_chain"}),
			accept: []string{
				"CREATE SCHEMA app",
				"CREATE SCHEMA app AUTHORIZATION owner_name",
			},
		},
		{
			name: "alter_drop",
			seed: cat(stmt, []string{"alter_table", "alter_drop_column", "alter_column",
				"table_definition", "data_type", "type_parameters", "type_integer",
				"default_clause", "drop_statements", "drop_table", "drop_other",
				"identifier_chain", "literal", "numeric_literal"}),
			accept: []string{
				"ALTER TABLE t ADD COLUMN c INTEGER",
				"ALTER TABLE t DROP COLUMN c CASCADE",
				"ALTER TABLE t ALTER COLUMN c SET DEFAULT 1",
				"ALTER TABLE t ALTER c DROP DEFAULT",
				"DROP TABLE t RESTRICT",
				"DROP SCHEMA s",
				"DROP SEQUENCE s",
			},
			reject: []string{"DROP VIEW v"},
		},
		{
			name: "access_control",
			seed: cat(stmt, []string{"grant_statement", "priv_select", "priv_update",
				"revoke_statement", "role_definition", "grant_role", "identifier_chain"}),
			accept: []string{
				"GRANT SELECT, UPDATE ON TABLE t TO PUBLIC WITH GRANT OPTION",
				"REVOKE GRANT OPTION FOR SELECT ON t FROM u CASCADE",
				"CREATE ROLE auditor WITH ADMIN PUBLIC",
				"DROP ROLE auditor",
				"GRANT auditor TO u WITH ADMIN OPTION",
			},
			reject: []string{
				"GRANT DELETE ON t TO u", // privilege not selected
			},
		},
		{
			name: "transactions",
			seed: cat(stmt, []string{"multi_statement", "transaction", "chain_clause",
				"isolation_level", "isolation_serializable", "transaction_access_mode",
				"set_transaction", "savepoints", "identifier_chain"}),
			accept: []string{
				"START TRANSACTION",
				"START TRANSACTION ISOLATION LEVEL SERIALIZABLE, READ ONLY",
				"SET LOCAL TRANSACTION READ WRITE",
				"COMMIT WORK AND NO CHAIN",
				"SAVEPOINT sp; ROLLBACK TO SAVEPOINT sp; RELEASE SAVEPOINT sp",
			},
			reject: []string{
				"START TRANSACTION ISOLATION LEVEL READ COMMITTED", // level not selected
			},
		},
		{
			name: "session_connection",
			seed: cat(stmt, []string{"session_statements", "set_role", "set_time_zone",
				"connection_statements", "literal", "string_literal", "numeric_literal"}),
			accept: []string{
				"SET SCHEMA 'app'",
				"SET NAMES ascii_full",
				"SET ROLE NONE",
				"SET SESSION AUTHORIZATION 'u'",
				"SET TIME ZONE LOCAL",
				"CONNECT TO 'server' AS c USER 'u'",
				"DISCONNECT ALL",
				"SET CONNECTION DEFAULT",
			},
		},
		{
			name: "cursors",
			seed: cat(stmt, queryCore, condCore, []string{"multi_statement",
				"declare_cursor", "updatability_clause", "open_close_statements",
				"fetch_statement", "fetch_next_prior", "fetch_absolute_relative",
				"query_statement_f", "query_expression", "host_parameter"}),
			accept: []string{
				"DECLARE c CURSOR FOR SELECT a FROM t",
				"DECLARE c INSENSITIVE NO SCROLL CURSOR WITH HOLD FOR SELECT a FROM t FOR READ ONLY",
				"OPEN c; FETCH NEXT FROM c INTO :x; CLOSE c",
				"FETCH ABSOLUTE 3 FROM c INTO :x, :y",
			},
			reject: []string{
				"FETCH LAST FROM c INTO :x", // orientation not selected
			},
		},
		{
			name: "dynamic_sql",
			seed: cat(stmt, queryCore, []string{"multi_statement", "prepare_statement",
				"execute_statement", "literal", "string_literal"}),
			accept: []string{
				"PREPARE s FROM 'SELECT a FROM t'",
				"EXECUTE s",
				"EXECUTE s USING 1, 2",
				"EXECUTE IMMEDIATE 'DELETE FROM t'",
				"DEALLOCATE PREPARE s",
			},
		},
		{
			name: "merge",
			seed: cat(stmt, queryCore, condCore, []string{"merge_statement",
				"update_statement", "insert_statement"}),
			accept: []string{
				"MERGE INTO t USING u ON a = b WHEN MATCHED THEN UPDATE SET x = 1",
				"MERGE INTO t AS d USING u ON a = b WHEN NOT MATCHED THEN INSERT (a) VALUES (1)",
			},
		},
		{
			name: "predicates_extended",
			seed: cat(stmt, queryCore, condCore, []string{"query_statement_f",
				"query_expression", "where",
				"null_predicate", "between_predicate", "between_symmetry",
				"in_predicate", "like_predicate", "like_escape", "similar_predicate",
				"overlaps_predicate", "distinct_predicate", "truth_value_test",
				"literal", "string_literal"}),
			accept: []string{
				"SELECT a FROM t WHERE b IS NOT NULL",
				"SELECT a FROM t WHERE b BETWEEN SYMMETRIC 1 AND 2",
				"SELECT a FROM t WHERE b NOT IN (1, 2, 3)",
				"SELECT a FROM t WHERE b LIKE 'x%' ESCAPE '!'",
				"SELECT a FROM t WHERE b SIMILAR TO 'y+'",
				"SELECT a FROM t WHERE a OVERLAPS b",
				"SELECT a FROM t WHERE a IS DISTINCT FROM b",
				"SELECT a FROM t WHERE a = 1 IS NOT UNKNOWN",
			},
			reject: []string{
				"SELECT a FROM t WHERE EXISTS (SELECT b FROM u)", // exists not selected
			},
		},
		{
			name: "value_functions",
			seed: cat(stmt, queryCore, []string{"query_statement_f", "query_expression",
				"multiple_columns",
				"numeric_functions", "fn_abs", "fn_mod", "fn_extract", "field_year",
				"interval_qualifier",
				"string_functions", "fn_substring", "fn_trim", "fn_fold",
				"literal", "string_literal"}),
			accept: []string{
				"SELECT ABS(a), MOD(a, 2) FROM t",
				"SELECT EXTRACT(YEAR FROM d) FROM t",
				"SELECT SUBSTRING(name FROM 2 FOR 3), TRIM(BOTH 'x' FROM name), UPPER(name) FROM t",
			},
			reject: []string{
				"SELECT FLOOR(a) FROM t", // fn not selected
			},
		},
		{
			name: "datetime_literals_and_types",
			seed: cat(stmt, queryCore, []string{"query_statement_f", "query_expression",
				"cast_specification", "data_type", "type_parameters",
				"type_date", "type_time", "type_timestamp", "type_time_zone",
				"type_interval", "interval_qualifier", "field_day", "field_hour",
				"datetime_literal_f", "interval_literal_f", "literal", "string_literal"}),
			accept: []string{
				"SELECT DATE '2008-03-29' FROM t",
				"SELECT CAST(a AS TIMESTAMP(3) WITH TIME ZONE) FROM t",
				"SELECT INTERVAL '2' DAY TO HOUR FROM t",
				"SELECT CAST(a AS INTERVAL HOUR(2)) FROM t",
			},
		},
	}

	m := MustModel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			product, err := core.Build(m, Registry{}, feature.NewConfig(tc.seed...), core.Options{
				Product: tc.name,
				Start:   tc.start,
			})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			for _, q := range tc.accept {
				if !product.Accepts(q) {
					_, perr := product.Parse(q)
					t.Errorf("rejected %q: %v", q, perr)
				}
			}
			for _, q := range tc.reject {
				if product.Accepts(q) {
					t.Errorf("accepted out-of-dialect %q", q)
				}
			}
		})
	}
}

// TestFeatureMonotonicity is the machine-scale check of the composition
// rules' central consequence: growing a feature selection only grows the
// language. For sampled pairs (sub ⊆ super) of valid configurations, every
// sentence generated from the sub product must also parse under the super
// product built at the same start symbol. Composition replaces an
// alternative only when the new one CONTAINS the old (internal/compose), so
// any counterexample here is a bug in compose, erasure, or the generator.
func TestFeatureMonotonicity(t *testing.T) {
	m := MustModel()
	sol := configure.New(m)
	queryCore := []string{
		"sql_script", "query_statement_f", "query_expression",
		"query_specification", "select_list", "select_columns", "derived_column",
		"table_expression", "from",
		"value_expression", "identifier_chain", "literal", "numeric_literal",
	}
	pairs, sentencesChecked := 0, 0
	seeds := int64(25)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		subCfg := sample(t, sol, seed, 0.10, queryCore...)
		extraCfg := sample(t, sol, seed+1000, 0.10, queryCore...)
		superCfg := subCfg.Clone()
		superCfg.Select(extraCfg.Names()...)

		sub, err := core.Build(m, Registry{}, subCfg, core.Options{Product: "mono-sub"})
		if err != nil {
			continue // sampled selection unbuildable; not this test's concern
		}
		super, err := core.Build(m, Registry{}, superCfg, core.Options{
			Product: "mono-super",
			Start:   sub.Grammar.Start,
		})
		if err != nil {
			// The union of two valid samples can violate XOR constraints or
			// fail validation; such pairs are skipped, and the pairs counter
			// below ensures enough usable ones remain.
			continue
		}
		pairs++

		gen, err := sentence.New(sub.Grammar, sub.Tokens, sentence.Options{
			Seed: seed, MaxDepth: 6,
		})
		if err != nil {
			t.Fatalf("seed %d: generator: %v", seed, err)
		}
		for i := 0; i < 12; i++ {
			s := gen.Sentence()
			if _, perr := sub.Parse(s); perr != nil {
				t.Errorf("seed %d sentence %d: sub product rejects its own sentence %q: %v",
					seed, i, s, perr)
				continue
			}
			if _, perr := super.Parse(s); perr != nil {
				t.Errorf("seed %d sentence %d: MONOTONICITY VIOLATION\n  sub features:   %v\n  super adds:     %v\n  sentence:       %q\n  super error:    %v",
					seed, i, subCfg.Names(), extraCfg.Names(), s, perr)
			}
			sentencesChecked++
		}
	}
	if pairs < 8 {
		t.Fatalf("only %d usable sub/super pairs (want >= 8); sampling drifted", pairs)
	}
	t.Logf("checked %d sentences over %d config pairs", sentencesChecked, pairs)
}
