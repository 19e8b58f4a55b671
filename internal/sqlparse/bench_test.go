package sqlparse

import "testing"

// benchStatements are shaped like the bench workloads' requests: an
// ad-hoc multi-aggregate join with date and numeric ranges, and a top-K
// projection.
var benchStatements = []string{
	"SELECT MIN(l_shipdate) AS vza, MAX(l_extendedprice) AS vlb, COUNT(*) AS vdc FROM lineitem, orders, part WHERE l_shipdate BETWEEN DATE '1997-08-17' AND DATE '1997-10-01' AND l_partkey = 1548 AND l_id >= 24896",
	"SELECT l_id, l_extendedprice FROM lineitem WHERE l_quantity < 11 ORDER BY l_extendedprice DESC LIMIT 10",
}

// BenchmarkParse parses both statements per op. Quote it at the default
// benchtime: `make bench-smoke` runs a single iteration.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sql := range benchStatements {
			if _, err := Parse(sql); err != nil {
				b.Fatal(err)
			}
		}
	}
}
