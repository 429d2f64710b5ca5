package main

import (
	"fmt"
	"strconv"
)

// rng is SplitMix64: small, deterministic, and independent of math/rand's
// version-to-version changes, so a seed names the same inputs forever.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(ss []string) string { return ss[r.intn(len(ss))] }

// stmt is one generated statement with its known answer.
type stmt struct {
	sql   string
	valid bool   // every preset that the statement was generated for accepts it
	kind  string // typed-AST statement kind: select|insert|update|delete, or "" for generic
	mark  string // the statement's unique literal, which any rendering must keep
}

// invalidSuffix turns an accepted statement into one every preset rejects:
// a stray closing parenthesis after a complete statement.
const invalidSuffix = " )"

var (
	sensorCols = []string{"nodeid", "light", "temp", "accel", "mag", "voltage"}
	sensorAggs = []string{"AVG", "MIN", "MAX", "COUNT", "SUM"}
	cardTables = []string{"accounts", "purses", "holders", "keys_tbl", "ledger"}
	cardCols   = []string{"id", "owner", "balance", "pin_tries", "status"}
	oltpTables = []string{"customers", "orders", "items", "payments", "stock", "regions"}
	oltpCols   = []string{"id", "name", "qty", "price", "created", "region", "status", "total"}
	whMeasures = []string{"amount", "quantity", "discount", "net"}
	whDims     = []string{"region", "product", "channel", "year_col", "quarter"}
	whFuncs    = []string{"SUM", "AVG", "MIN", "MAX", "COUNT"}
)

// family names the statement shapes a preset accepts. The presets nest
// (minimal ⊂ core ⊂ warehouse ⊂ full), and the shapes follow them.
type family int

const (
	famMinimal family = iota
	famSensor
	famCard
	famOLTP
	famAnalytics
)

// familiesFor lists the shape families valid under a preset.
func familiesFor(preset string) []family {
	switch preset {
	case "minimal":
		return []family{famMinimal}
	case "tinysql":
		return []family{famSensor}
	case "scql":
		return []family{famCard}
	case "core":
		return []family{famOLTP}
	}
	return []family{famOLTP, famAnalytics} // warehouse, full
}

// gen produces never-repeating statements: every statement carries a
// literal drawn from a per-generator counter, so no two statements of one
// generator are equal, while identifiers and other literals vary with the
// seed. seen double-checks uniqueness across every generator of a run.
type gen struct {
	r    *rng
	uniq int
	seen map[uint64]struct{}
}

func newGen(seed uint64, seen map[uint64]struct{}) *gen {
	r := newRNG(seed)
	return &gen{r: r, uniq: 100000 + r.intn(800000), seen: seen}
}

// next returns a fresh statement valid under preset. formattable restricts
// it to the kinds the typed AST models (no cursor declarations).
func (g *gen) next(preset string, formattable bool) stmt {
	fams := familiesFor(preset)
	for {
		g.uniq++
		s := g.shape(fams[g.r.intn(len(fams))], strconv.Itoa(g.uniq), formattable)
		k := stmtKey(s.sql)
		if _, dup := g.seen[k]; dup {
			continue
		}
		g.seen[k] = struct{}{}
		return s
	}
}

// invalid returns the rejected variant of s; it is unique whenever s is.
func invalid(s stmt) stmt {
	s.sql += invalidSuffix
	s.valid = false
	return s
}

func (g *gen) shape(f family, u string, formattable bool) stmt {
	r := g.r
	s := stmt{valid: true, kind: "select", mark: u}
	switch f {
	case famMinimal:
		q := r.pick([]string{"", "DISTINCT ", "ALL "})
		s.sql = fmt.Sprintf("SELECT %s%s FROM %s WHERE %s = %s", q, r.pick(oltpCols), r.pick(oltpTables), r.pick(oltpCols), u)
	case famSensor:
		switch r.intn(3) {
		case 0:
			s.sql = fmt.Sprintf("SELECT nodeid, %s FROM sensors WHERE %s > %s SAMPLE PERIOD %d",
				r.pick(sensorCols), r.pick(sensorCols), u, 256<<r.intn(4))
		case 1:
			s.sql = fmt.Sprintf("SELECT %s(%s) FROM sensors WHERE %s > %s GROUP BY %s LIFETIME %d",
				r.pick(sensorAggs), r.pick(sensorCols), r.pick(sensorCols), u, r.pick(sensorCols), 1+r.intn(30))
		default:
			s.sql = fmt.Sprintf("SELECT %s, %s FROM sensors WHERE %s > %s SAMPLE PERIOD %d FOR %d",
				r.pick(sensorCols), r.pick(sensorCols), r.pick(sensorCols), u, 256<<r.intn(4), 10+r.intn(90))
		}
	case famCard:
		t, c := r.pick(cardTables), r.pick(cardCols)
		n := 5
		if formattable {
			n = 4
		}
		switch r.intn(n) {
		case 0:
			s.sql = fmt.Sprintf("SELECT %s FROM %s WHERE id = %s", c, t, u)
		case 1:
			s.kind = "insert"
			s.sql = fmt.Sprintf("INSERT INTO %s (id, %s) VALUES (%s, %d)", t, c, u, r.intn(10000))
		case 2:
			s.kind = "update"
			s.sql = fmt.Sprintf("UPDATE %s SET %s = %d WHERE id = %s", t, c, r.intn(10000), u)
		case 3:
			s.kind = "delete"
			s.sql = fmt.Sprintf("DELETE FROM %s WHERE %s = %s", t, c, u)
		default:
			s.kind = ""
			s.sql = fmt.Sprintf("DECLARE c%d CURSOR FOR SELECT %s FROM %s WHERE status = %s", r.intn(8), c, t, u)
		}
	case famOLTP:
		t, c1, c2 := r.pick(oltpTables), r.pick(oltpCols), r.pick(oltpCols)
		switch r.intn(6) {
		case 0:
			s.sql = fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s = %s AND %s < %d", c1, c2, t, c1, u, c2, r.intn(1000))
		case 1:
			s.sql = fmt.Sprintf("SELECT a.%s, b.%s FROM %s AS a LEFT JOIN %s AS b ON a.id = b.id WHERE a.%s > %s",
				c1, c2, t, r.pick(oltpTables), c2, u)
		case 2:
			s.sql = fmt.Sprintf("SELECT COUNT(*), %s FROM %s GROUP BY %s HAVING COUNT(*) > %s", c1, t, c1, u)
		case 3:
			s.kind = "insert"
			s.sql = fmt.Sprintf("INSERT INTO %s (%s, %s) VALUES (%s, '%s')", t, c1, c2, u, r.pick(oltpCols))
		case 4:
			s.kind = "update"
			s.sql = fmt.Sprintf("UPDATE %s SET %s = %s + %d WHERE %s IN (%s, %d, %d)",
				t, c1, c1, r.intn(10), c2, u, r.intn(100), r.intn(100))
		default:
			s.sql = fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %s AND %d ORDER BY %s DESC",
				c1, t, c2, u, 100+r.intn(900), c1)
		}
	case famAnalytics:
		m, fn, d1, d2 := r.pick(whMeasures), r.pick(whFuncs), r.pick(whDims), r.pick(whDims)
		switch r.intn(5) {
		case 0:
			s.sql = fmt.Sprintf("SELECT %s, %s(%s) FROM sales WHERE %s > %s GROUP BY ROLLUP (%s, %s)", d1, fn, m, m, u, d1, d2)
		case 1:
			s.sql = fmt.Sprintf("SELECT %s, RANK() OVER (PARTITION BY %s ORDER BY %s DESC) FROM sales WHERE %s > %s",
				d1, d1, m, m, u)
		case 2:
			s.sql = fmt.Sprintf("SELECT %s FROM sales WHERE %s > ALL (SELECT %s FROM budget WHERE %s < %s) GROUP BY %s",
				d1, m, m, m, u, d1)
		case 3:
			s.sql = fmt.Sprintf("WITH top_sales AS (SELECT %s, %s FROM sales WHERE %s > %s) SELECT %s, %s(%s) FROM top_sales GROUP BY %s",
				d1, m, m, u, d1, fn, m, d1)
		default:
			s.sql = fmt.Sprintf("SELECT %s FROM sales WHERE %s > %s UNION ALL SELECT %s FROM archive_sales", d1, m, u, d1)
		}
	}
	return s
}
