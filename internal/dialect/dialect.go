// Package dialect defines preset feature selections — the products of the
// SQL product line that the paper motivates:
//
//   - Minimal: the paper's Section 3.2 worked example (single-column,
//     single-table SELECT with optional set quantifier and WHERE).
//   - TinySQL: a sensor-network dialect in the spirit of TinyDB's TinySQL —
//     restricted SELECT (no column aliases, no joins) plus acquisitional
//     clauses (SAMPLE PERIOD, EPOCH DURATION, LIFETIME, ON EVENT).
//   - SCQL: a smart-card profile in the spirit of ISO 7816-7 SCQL —
//     cursor-centric table access with basic DDL/DML and grants.
//   - Core: a general-purpose interactive SQL subset.
//   - Warehouse: Core plus analytics (ROLLUP/CUBE/GROUPING SETS, windows,
//     set operations, WITH).
//   - Full: every feature in the model.
package dialect

import (
	"fmt"
	"sort"
	"sync"

	"sqlspl/internal/core"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

// Name identifies a preset dialect.
type Name string

// The preset dialects, ordered roughly by size.
const (
	Minimal   Name = "minimal"
	TinySQL   Name = "tinysql"
	SCQL      Name = "scql"
	Core      Name = "core"
	Warehouse Name = "warehouse"
	Full      Name = "full"
)

// Names returns all preset names in size order.
func Names() []Name {
	return []Name{Minimal, TinySQL, SCQL, Core, Warehouse, Full}
}

// queryMinimal is the worked example's feature-instance description plus
// the features its WHERE clause pulls in (conditions need predicates, which
// need value expressions, identifiers, and literals).
var queryMinimal = []string{
	"query_specification", "select_list", "select_columns", "derived_column",
	"table_expression", "from", "where",
	"set_quantifier", "quantifier_all", "quantifier_distinct",
	"search_condition", "predicate", "comparison", "op_equals",
	"value_expression", "identifier_chain", "literal", "numeric_literal", "string_literal",
}

// tinySQL: restricted query dialect + acquisitional extensions. Note what is
// absent: column aliases, joins, subqueries, ORDER BY — mirroring TinySQL's
// documented restrictions.
var tinySQL = append([]string{
	"sql_script", "query_statement_f", "query_expression",
	"select_asterisk", "multiple_columns",
	"group_by", "having",
	"op_not_equals", "op_less", "op_greater", "op_less_equals", "op_greater_equals",
	"set_function", "agg_avg", "agg_max", "agg_min", "agg_sum", "agg_count",
	"sensor_extensions", "epoch_duration", "lifetime_clause", "on_event", "storage_point",
}, queryMinimal...)

// scql: smart-card profile. Cursor-based access, basic table DDL, searched
// DML, grants on tables.
var scql = append([]string{
	"sql_script", "multi_statement", "query_statement_f", "query_expression",
	"select_asterisk", "multiple_columns",
	"op_not_equals", "op_less", "op_greater", "op_less_equals", "op_greater_equals",
	"insert_statement", "update_statement", "delete_statement",
	"table_definition", "data_type", "type_parameters",
	"type_integer", "type_char", "type_varchar",
	"declare_cursor", "open_close_statements", "fetch_statement", "fetch_next_prior",
	"host_parameter",
	"positioned_update", "positioned_delete",
	"grant_statement", "priv_select", "priv_insert", "priv_update", "priv_delete",
	"revoke_statement",
}, queryMinimal...)

// coreSQL: a general-purpose interactive subset.
var coreSQL = append([]string{
	"sql_script", "multi_statement", "query_statement_f", "query_expression",
	"select_asterisk", "multiple_columns", "column_alias", "qualified_asterisk",
	"multiple_tables", "table_alias",
	"joined_table", "outer_join", "left_join", "right_join", "full_join",
	"cross_join", "named_columns_join",
	"group_by", "having", "order_by", "ordering", "ordering_asc", "ordering_desc",
	"op_not_equals", "op_less", "op_greater", "op_less_equals", "op_greater_equals",
	"null_predicate", "between_predicate", "in_predicate", "like_predicate",
	"subquery", "scalar_subquery", "in_subquery", "exists_predicate", "derived_table",
	"set_function", "agg_avg", "agg_max", "agg_min", "agg_sum", "agg_count",
	"literal_sign", "approximate_numeric", "boolean_literal_f",
	"insert_statement", "insert_multi_row", "insert_defaults",
	"update_statement", "update_defaults", "delete_statement",
	"table_definition", "default_clause",
	"column_constraint", "unique_column_constraint", "references_constraint", "check_constraint",
	"table_constraint", "referential_table_constraint", "check_table_constraint",
	"data_type", "type_parameters",
	"type_smallint", "type_integer", "type_bigint", "type_decimal",
	"type_float", "type_real", "type_double",
	"type_char", "type_varchar", "type_date", "type_time", "type_timestamp",
	"type_boolean",
	"drop_statements", "drop_table", "drop_view",
	"view_definition",
	"alter_table", "alter_drop_column", "alter_column",
	"transaction", "chain_clause", "savepoints",
	"cast_specification", "case_expression", "simple_case", "case_nullif", "case_coalesce",
	"string_concat", "dynamic_parameter",
}, queryMinimal...)

// warehouse adds the analytics features the paper's data-warehousing
// motivation lists.
var warehouse = append([]string{
	"group_rollup", "group_cube", "group_grouping_sets", "group_empty_set",
	"window", "window_specification", "window_partition", "window_order", "window_frame",
	"window_function", "wf_rank", "wf_dense_rank", "wf_percent_rank", "wf_cume_dist",
	"wf_row_number", "wf_aggregate",
	"union", "union_quantifier", "except", "except_quantifier", "intersect",
	"with_clause", "recursive_with",
	"agg_every", "agg_any_some", "agg_stddev", "agg_variance", "filter_clause",
	"quantified_comparison", "null_ordering",
	"numeric_functions", "fn_abs", "fn_mod", "fn_floor_ceiling", "fn_power_sqrt",
	"string_functions", "fn_substring", "fn_fold", "fn_trim",
	"insert_from_query", "merge_statement",
}, coreSQL...)

// preset is one preset dialect, resolved once per process.
type preset struct {
	features []string // Features' answer; callers get copies
	sel      product.Selection
}

// presets holds every preset's feature list, configuration and catalog
// fingerprint, computed on first use. Fingerprinting sorts and hashes
// every feature name (hundreds for Full), so serving a preset by name
// must not redo it per request; the table makes that a map probe. The
// fingerprints must equal the ones the pregenerated parsers register
// under (internal/engine/gen reads them from here), or no preset promotes.
var presets = sync.OnceValue(func() map[Name]*preset {
	lists := map[Name][]string{
		Minimal:   sorted(queryMinimal),
		TinySQL:   sorted(tinySQL),
		SCQL:      sorted(scql),
		Core:      sorted(coreSQL),
		Warehouse: sorted(warehouse),
		Full:      sql2003.MustModel().FeatureNames(),
	}
	out := make(map[Name]*preset, len(lists))
	for name, feats := range lists {
		out[name] = &preset{
			features: feats,
			sel:      product.NewSelection(feature.NewConfig(feats...), core.Options{Product: string(name)}),
		}
	}
	return out
})

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

func lookup(name Name) (*preset, error) {
	if p, ok := presets()[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("dialect: unknown preset %q", name)
}

// Features returns the feature-instance description for a preset. The
// returned slice is fresh; callers may extend it. Full returns every
// feature in the model.
func Features(name Name) ([]string, error) {
	p, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), p.features...), nil
}

// Selection returns the preset's catalog selection, fingerprinted once
// per process. Resolving it (product.Catalog.ResolveSelection) on any
// catalog costs a map probe; the serving path resolves presets this way.
func Selection(name Name) (product.Selection, error) {
	p, err := lookup(name)
	if err != nil {
		return product.Selection{}, err
	}
	return p.sel, nil
}

// Build resolves the preset's parser product through the shared product
// catalog (package product): the first request for a preset composes and
// generates it; every later request — from any goroutine — returns the
// same cached *core.Product. The returned product is shared and must be
// treated as immutable; its Parser is safe for concurrent use.
func Build(name Name) (*core.Product, error) {
	p, _, err := Resolve(name)
	return p, err
}

// Engine resolves the preset's serving engine through the shared product
// catalog: the pregenerated parser when one is registered for the preset's
// fingerprint (and current), the interpreted product otherwise. Callers
// that only parse should prefer this over Build; Build remains for callers
// that need the composition artifacts (grammar, token set, erased units).
//
// Note: the pregenerated parsers are linked only by binaries that import
// sqlspl/internal/engine/generated (the serving surface does); without
// that import every preset resolves to its interpreted engine.
func Engine(name Name) (engine.Engine, error) {
	_, eng, err := Resolve(name)
	return eng, err
}

// Resolve returns the preset's product and serving engine in one catalog
// lookup — for callers (the streaming batch path) that need the product's
// lexer alongside the engine without a second resolution.
func Resolve(name Name) (*core.Product, engine.Engine, error) {
	sel, err := Selection(name)
	if err != nil {
		return nil, nil, err
	}
	return product.Default().ResolveSelection(sel)
}

// Catalog returns the catalog behind the presets — the process-wide
// default catalog over the SQL:2003 model.
func Catalog() *product.Catalog { return product.Default() }
