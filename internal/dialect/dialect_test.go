package dialect

import (
	"testing"

	"sqlspl/internal/core"
	"sqlspl/internal/engine"
	_ "sqlspl/internal/engine/generated"
	"sqlspl/internal/feature"
	"sqlspl/internal/product"
)

func TestAllPresetsBuild(t *testing.T) {
	for _, name := range Names() {
		if _, err := Build(name); err != nil {
			t.Errorf("Build(%s): %v", name, err)
		}
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := Features("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestPresetSelections pins the preset table: each preset's selection
// fingerprints exactly like the (Features, Options{Product: name}) request
// it stands for, and a generated parser for the preset is registered under
// that fingerprint, so presets resolved by selection still promote.
func TestPresetSelections(t *testing.T) {
	for _, name := range Names() {
		feats, err := Features(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Selection(name)
		if err != nil {
			t.Fatal(err)
		}
		want := product.Fingerprint(feature.NewConfig(feats...), core.Options{Product: string(name)})
		if sel.Fingerprint() != want {
			t.Errorf("%s: selection fingerprint %s, want %s", name, sel.Fingerprint(), want)
		}
		if g, ok := engine.Lookup(want); !ok || g.Preset != string(name) {
			t.Errorf("%s: no generated parser registered under %s", name, want)
		}
		if sel.Config().Len() != len(feats) {
			t.Errorf("%s: selection has %d features, Features lists %d", name, sel.Config().Len(), len(feats))
		}
		feats[0] = "mutated"
		if again, _ := Features(name); again[0] == "mutated" {
			t.Errorf("%s: Features shares the table's slice", name)
		}
	}
	if _, err := Selection("nope"); err == nil {
		t.Error("unknown preset has a selection")
	}
}

func TestMinimalDialect(t *testing.T) {
	p, err := Build(Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Accepts("SELECT DISTINCT a FROM t WHERE b = 1") {
		t.Error("minimal dialect rejected its worked-example query")
	}
	if p.Accepts("SELECT a, b FROM t") {
		t.Error("minimal dialect accepted a multi-column query")
	}
}

func TestTinySQLDialect(t *testing.T) {
	p, err := Build(TinySQL)
	if err != nil {
		t.Fatal(err)
	}
	accept := []string{
		// Canonical TinyDB queries.
		"SELECT nodeid, light FROM sensors SAMPLE PERIOD 1024",
		"SELECT nodeid, temp FROM sensors WHERE temp = 100 SAMPLE PERIOD 2048 FOR 10",
		"SELECT AVG(light) FROM sensors GROUP BY roomno HAVING AVG(light) = 1 EPOCH DURATION 512",
		"SELECT COUNT(*) FROM sensors LIFETIME 30",
		"ON EVENT bird_detect(loc): SELECT b.cnt FROM sensors SAMPLE PERIOD 1024",
		"CREATE STORAGE POINT recentlight SIZE 8 AS SELECT nodeid, light FROM sensors",
		"SELECT * FROM sensors",
	}
	reject := []string{
		"SELECT nodeid AS n FROM sensors",               // no column aliases in TinySQL
		"SELECT a FROM sensors s JOIN other o ON a = b", // no joins
		"SELECT a FROM sensors ORDER BY a",              // no ORDER BY
		"INSERT INTO sensors (a) VALUES (1)",            // no DML
		"SELECT a FROM (SELECT b FROM t) x",             // no derived tables
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("tinysql rejected %q: %v", q, err)
		}
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("tinysql accepted %q", q)
		}
	}
}

func TestSCQLDialect(t *testing.T) {
	p, err := Build(SCQL)
	if err != nil {
		t.Fatal(err)
	}
	accept := []string{
		"CREATE TABLE accounts ( id INTEGER, owner VARCHAR(20), balance INTEGER )",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"UPDATE accounts SET balance = 90 WHERE id = 1",
		"DELETE FROM accounts WHERE id = 1",
		"DECLARE c CURSOR FOR SELECT owner FROM accounts WHERE balance = 100",
		"OPEN c; FETCH c INTO :owner; CLOSE c",
		"UPDATE accounts SET balance = 0 WHERE CURRENT OF c",
		"GRANT SELECT, UPDATE ON accounts TO PUBLIC",
		"REVOKE UPDATE ON accounts FROM PUBLIC",
	}
	reject := []string{
		"CREATE VIEW v AS SELECT a FROM t",      // no views in the profile
		"SELECT a FROM t GROUP BY a",            // no grouping
		"CREATE TABLE t ( c BLOB )",             // type not in profile
		"SELECT a FROM t UNION SELECT b FROM u", // no set operations
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("scql rejected %q: %v", q, err)
		}
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("scql accepted %q", q)
		}
	}
}

func TestCoreDialect(t *testing.T) {
	p, err := Build(Core)
	if err != nil {
		t.Fatal(err)
	}
	accept := []string{
		"SELECT a, b AS total FROM t WHERE a = 1 AND b < 2 ORDER BY a DESC",
		"SELECT t.* FROM t, u WHERE t.id = u.id",
		"SELECT a FROM t LEFT OUTER JOIN u ON t.id = u.id",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u)",
		"SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.id = t.id)",
		"SELECT name FROM emp WHERE salary BETWEEN 100 AND 200",
		"SELECT a FROM t WHERE b IS NOT NULL",
		"SELECT COUNT(*), AVG(x) FROM t GROUP BY y HAVING COUNT(*) > 1",
		"SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM t",
		"SELECT CAST(a AS INTEGER) FROM t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = DEFAULT, b = 2 WHERE c = 3",
		"DELETE FROM t WHERE a LIKE 'x%'",
		"CREATE TABLE t ( id INTEGER PRIMARY KEY, name VARCHAR(10) NOT NULL, CONSTRAINT fk FOREIGN KEY (id) REFERENCES u (id) )",
		"CREATE VIEW v AS SELECT a FROM t",
		"ALTER TABLE t ADD COLUMN c DATE",
		"DROP TABLE t CASCADE",
		"START TRANSACTION; COMMIT",
		"SELECT a FROM (SELECT b FROM u) AS d",
	}
	reject := []string{
		"SELECT a FROM t UNION SELECT b FROM u", // warehouse feature
		"SELECT RANK() OVER (w) FROM t WINDOW w AS (PARTITION BY a)",
		"SELECT a FROM t GROUP BY ROLLUP (a)",
		"MERGE INTO t USING u ON a = b WHEN MATCHED THEN UPDATE SET x = 1",
		"WITH q AS (SELECT a FROM t) SELECT a FROM q",
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("core rejected %q: %v", q, err)
		}
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("core accepted %q", q)
		}
	}
}

func TestWarehouseDialect(t *testing.T) {
	p, err := Build(Warehouse)
	if err != nil {
		t.Fatal(err)
	}
	accept := []string{
		"SELECT a FROM t UNION ALL SELECT b FROM u",
		"SELECT a FROM t EXCEPT SELECT b FROM u INTERSECT SELECT c FROM v",
		"SELECT region, SUM(amount) FROM sales GROUP BY ROLLUP (region, product)",
		"SELECT region FROM sales GROUP BY GROUPING SETS (region, (region, product), ())",
		"SELECT region, RANK() OVER (PARTITION BY region ORDER BY amount DESC) FROM sales",
		"SELECT SUM(x) OVER (ORDER BY d ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM t",
		"WITH RECURSIVE r AS (SELECT a FROM t) SELECT a FROM r",
		"SELECT STDDEV_POP(x) FILTER (WHERE y = 1) FROM t",
		"MERGE INTO t USING u ON t.id = u.id WHEN MATCHED THEN UPDATE SET x = 1 WHEN NOT MATCHED THEN INSERT (a) VALUES (1)",
		"INSERT INTO archive SELECT a, b FROM live WHERE d < 10",
		"SELECT a FROM t ORDER BY a ASC NULLS LAST",
		"SELECT SUBSTRING(name FROM 1 FOR 3), UPPER(city) FROM t",
		"SELECT x FROM t WHERE x > ALL (SELECT y FROM u)",
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("warehouse rejected %q: %v", q, err)
		}
	}
}

func TestFullDialect(t *testing.T) {
	p, err := Build(Full)
	if err != nil {
		t.Fatal(err)
	}
	accept := []string{
		"SELECT a FROM t",
		"CREATE SEQUENCE seq START WITH 1 INCREMENT BY 2 NO MAXVALUE",
		"CREATE DOMAIN money AS DECIMAL(10, 2) DEFAULT 0",
		"CREATE TRIGGER trg AFTER UPDATE OF a ON t FOR EACH ROW UPDATE log SET n = 1",
		"CREATE FUNCTION f ( IN x INTEGER ) RETURNS INTEGER RETURN x + 1",
		"CREATE SCHEMA app AUTHORIZATION app_owner",
		"GRANT ALL PRIVILEGES ON t TO PUBLIC WITH GRANT OPTION",
		"CREATE ROLE auditor",
		"SET TRANSACTION ISOLATION LEVEL SERIALIZABLE, READ ONLY",
		"SAVEPOINT sp1; ROLLBACK TO SAVEPOINT sp1",
		"SET SCHEMA 'app'",
		"CONNECT TO 'server' AS conn USER 'u'",
		"PREPARE s FROM 'SELECT a FROM t'; EXECUTE s USING 1",
		"DECLARE c INSENSITIVE SCROLL CURSOR WITH HOLD FOR SELECT a FROM t ORDER BY a FOR UPDATE OF a",
		"FETCH ABSOLUTE 5 FROM c INTO :x",
		"SELECT INTERVAL '3' DAY + col FROM t",
		"SELECT CAST(NULL AS TIMESTAMP(3) WITH TIME ZONE) FROM t",
		"CREATE TABLE t ( xs INTEGER ARRAY[10], m ROW ( a INTEGER, b DATE ) )",
		"SELECT EXTRACT(YEAR FROM d) FROM t WHERE x IS DISTINCT FROM y",
		"SELECT TRIM(LEADING 'x' FROM name) FROM t",
		"SELECT a FROM t WHERE (a, b) = (1, 2)",
		"SELECT a FROM t WHERE a = 1 IS NOT TRUE",
		"VALUES (1, 2), (3, 4)",
		"TABLE t",
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("full rejected %q: %v", q, err)
		}
	}
	reject := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"CREATE t TABLE",
		"GRANT ON t TO u",
		"SELECT a FROM t WHERE",
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("full accepted garbage %q", q)
		}
	}
}

// TestDialectMonotonicity: grammar size grows along the preset ladder
// (experiment E6's qualitative shape).
func TestDialectMonotonicity(t *testing.T) {
	var last int
	for _, name := range []Name{Minimal, TinySQL, Core, Warehouse, Full} {
		p, err := Build(name)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		n := p.Grammar.Len()
		if n < last {
			t.Errorf("%s has %d productions, smaller than previous preset's %d", name, n, last)
		}
		last = n
	}
}
