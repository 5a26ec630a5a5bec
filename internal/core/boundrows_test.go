package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/obs"
	"lightpath/internal/oracle"
	"lightpath/internal/wdm"
)

// keepRows is the test BoundRows: a map of stored rows, asking for a
// build on every miss or on none. Not safe for concurrent queries.
type keepRows struct {
	rows  map[int][]float32
	build bool
}

func (k *keepRows) Row(t int) ([]float32, bool) {
	if row, ok := k.rows[t]; ok {
		return row, false
	}
	return nil, k.build
}

func (k *keepRows) Store(t int, row []float32) { k.rows[t] = row }

// secondAsk admits rows the way the engine does: a destination's first
// miss builds nothing, its second builds.
type secondAsk struct {
	keepRows
	asked map[int]bool
}

func (k *secondAsk) Row(t int) ([]float32, bool) {
	if row, ok := k.rows[t]; ok {
		return row, false
	}
	again := k.asked[t]
	k.asked[t] = true
	return nil, again
}

// checkRowsChangeNothing is the determinism differential: for every
// ordered pair of a, the bound read three ways — no row (the pass stops
// at s), the row just built (complete pass, stored), the row resident (no
// pass) — must give the same potential on EVERY auxiliary node bit for
// bit, and the query on top of it the same cost (plain's, bit for bit;
// the oracle's on a sample), the same error text and the same
// blocked_cause. storable says whether a's labels fit a float32 row; when
// they do not, nothing may be stored and every ask runs the pass.
func checkRowsChangeNothing(t *testing.T, a *Aux, rng *rand.Rand, storable bool) {
	t.Helper()
	n := a.nw.NumNodes()
	qs := a.pool.get()
	defer a.pool.put(qs)
	potentials := func(pot func(int) float64) []uint64 {
		if pot == nil {
			return nil
		}
		out := make([]uint64, a.NumAuxNodes())
		for v := range out {
			out[v] = math.Float64bits(pot(v))
		}
		return out
	}
	for d := 0; d < n; d++ {
		rows := &keepRows{rows: make(map[int][]float32), build: true}
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			pot, popsAbsent, from := a.physicalBound(qs, s, d, nil)
			absent := potentials(pot)
			if from != BoundRowAbsent {
				t.Fatalf("%d→%d without rows: bound row %q", s, d, from)
			}
			// The first source's ask builds d's row and its next ask reads
			// it back; every later source finds it resident.
			for {
				_, wasResident := rows.rows[d]
				pot, pops, from := a.physicalBound(qs, s, d, rows)
				switch {
				case !storable:
					if from != BoundRowAbsent || len(rows.rows) != 0 {
						t.Fatalf("%d→%d: bound row %q, %d stored; these labels do not fit float32", s, d, from, len(rows.rows))
					}
				case wasResident:
					if from != BoundRowHit || pops != 0 {
						t.Fatalf("%d→%d on a resident row: bound row %q after %d pops", s, d, from, pops)
					}
				default:
					if from != BoundRowBuilt || pops < popsAbsent {
						t.Fatalf("%d→%d first ask with build on: bound row %q, %d pops (the truncated pass took %d)", s, d, from, pops, popsAbsent)
					}
				}
				got := potentials(pot)
				if (got == nil) != (absent == nil) {
					t.Fatalf("%d→%d: reachable without rows = %v, with (%s) = %v", s, d, absent != nil, from, got != nil)
				}
				for v := range got {
					if got[v] != absent[v] {
						t.Fatalf("%d→%d: π(aux %d) = %v from a %s row, %v without rows", s, d, v,
							math.Float64frombits(got[v]), from, math.Float64frombits(absent[v]))
					}
				}
				if from != BoundRowBuilt {
					break
				}
			}

			plain, errP := a.Route(s, d, plainOpts)
			causes := make(map[string]bool)
			for _, bound := range []BoundRows{nil, rows} {
				res, err, sp := boundSpan(a, s, d, bound)
				if (err == nil) != (errP == nil) {
					t.Fatalf("%d→%d: plain %v, astar %v", s, d, errP, err)
				}
				if err != nil {
					if err.Error() != errP.Error() {
						t.Fatalf("%d→%d: astar blocks with %q, plain with %q", s, d, err, errP)
					}
					c, _ := sp.Attr(AttrBlockedCause)
					causes[c.Str] = true
					continue
				}
				if math.Float64bits(res.Cost) != math.Float64bits(plain.Cost) {
					t.Fatalf("%d→%d: astar cost %v, plain %v", s, d, res.Cost, plain.Cost)
				}
			}
			if len(causes) > 1 {
				t.Fatalf("%d→%d: blocked_cause depends on the row: %v", s, d, causes)
			}
			if errP == nil && rng.Intn(8) == 0 {
				if want, _, err := oracle.Solve(a.nw, s, d); err != nil || !costEq(want, plain.Cost) {
					t.Fatalf("%d→%d: oracle %v (%v), routed %v", s, d, want, err, plain.Cost)
				}
			}
		}
	}
}

// boundSpan routes s→d under astar with rows lent, inside a private
// trace, and returns the result with the query's core_search span.
func boundSpan(a *Aux, s, d int, rows BoundRows) (*Result, error, *obs.Span) {
	req := obs.StartTrace("request")
	res, err := a.Route(s, d, &Options{Directed: DirectedAStar, Span: req.Root(), Bound: rows})
	return res, err, req.Span(SpanSearch)
}

// TestBoundRowsChangeNothing: every topology fixture × every converter
// family, installed and on a churned residual with failed links.
func TestBoundRowsChangeNothing(t *testing.T) {
	for conv, spec := range directedConvs {
		for name, nw := range directedFixtures(t, spec) {
			t.Run(conv+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(2222))
				a := mustAux(t, nw)
				checkRowsChangeNothing(t, a, rng, true)
				res, changed := churnWithFailures(t, nw, rng)
				child, err := a.ApplyDelta(res, changed)
				if err != nil {
					t.Fatal(err)
				}
				if child.boundGrid != a.boundGrid {
					t.Fatalf("the delta changed the grid: %v → %v", a.boundGrid, child.boundGrid)
				}
				checkRowsChangeNothing(t, child, rng, true)
			})
		}
	}
}

// TestBoundRowsBeyondTheWindow is the same differential where the bound
// pass is least comfortable: weights over 10⁻³…10³ (a bucket holds nodes
// that improve one another, and the lightest links round to a handful of
// grid units), a layout with zero-weight channels, and — the float32
// assertion's case — a residual ten thousand times heavier than the
// layout its grid was sized from, whose labels overflow 2²⁴ grid units:
// there a row must be refused, not rounded.
func TestBoundRowsBeyondTheWindow(t *testing.T) {
	base := directedFixtures(t, directedConvs["sparse"])["sparse"]
	rng := rand.New(rand.NewSource(2323))
	wide := mustAux(t, reweigh(t, base, func() float64 { return math.Pow(10, -3+6*rng.Float64()) }))
	zeros := mustAux(t, reweigh(t, base, func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return 1 + 9*rng.Float64()
	}))
	for _, a := range []*Aux{wide, deepChain(t, wide, rng, 100), zeros, deepChain(t, zeros, rng, 100)} {
		checkRowsChangeNothing(t, a, rng, true)
	}
	heavy, err := NewAuxWithLayout(base, reweigh(t, base, func() float64 { return 1e4 * (1 + 9*rng.Float64()) }))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsChangeNothing(t, heavy, rng, false)
}

// TestBoundGrid is the grid's unit table: 2^(⌈log₂(n·maxW)⌉ − 24), exact
// at powers of two, 0 where there is nothing to round.
func TestBoundGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		maxW float64
		want float64
	}{
		{"n·maxW = 16, a power of two", 4, 4, math.Ldexp(1, 4-24)},
		{"just above a power of two", 17, 1, math.Ldexp(1, 5-24)},
		{"just below one", 3, 5, math.Ldexp(1, 4-24)},
		{"fractional power of two", 2, 0.125, math.Ldexp(1, -2-24)},
		{"the serving range, n=300 weights ≤ 10", 300, 10, math.Ldexp(1, 12-24)},
		{"maxW = 0", 9, 0, 0},
		{"no nodes", 0, 3, 0},
		{"infinite weight", 5, math.Inf(1), 0},
		{"grid would underflow", 2, 5e-324, 0},
	} {
		got := boundGrid(tc.n, tc.maxW)
		if got != tc.want {
			t.Errorf("%s: boundGrid(%d, %v) = %v, want %v", tc.name, tc.n, tc.maxW, got, tc.want)
		}
		if got == 0 {
			continue
		}
		// The longest simple path, every link at the maximum: still below
		// 2²⁴ units, so it and every partial sum fit a float32.
		far := float64(tc.n-1) * gridFloor(tc.maxW, got)
		if units := far / got; units >= 1<<24 || float64(float32(far)) != far {
			t.Errorf("%s: %v grid units at the far end of a path; float32 holds %v as %v", tc.name, units, far, float32(far))
		}
	}
	for _, tc := range []struct{ w, q, want float64 }{
		{5.3, 0.5, 5}, {5.5, 0.5, 5.5}, {0.2, 0.5, 0}, {0, 0.5, 0}, {7.7, 0, 7.7},
		{math.Inf(1), 0.5, math.Inf(1)}, {math.Inf(1), 0, math.Inf(1)},
	} {
		if got := gridFloor(tc.w, tc.q); got != tc.want {
			t.Errorf("gridFloor(%v, %v) = %v, want %v", tc.w, tc.q, got, tc.want)
		}
	}
}

// TestBoundRowOnTinyNetworks: one link; and a link lighter than the grid,
// which weighs 0 in the bound and its real weight in the answer.
func TestBoundRowOnTinyNetworks(t *testing.T) {
	one := wdm.NewNetwork(2, 1)
	if _, err := one.AddLink(0, 1, []wdm.Channel{{Lambda: 0, Weight: 3.3}}); err != nil {
		t.Fatal(err)
	}
	a := mustAux(t, one)
	rows := &keepRows{rows: make(map[int][]float32), build: true}
	res, err, sp := boundSpan(a, 0, 1, rows)
	if err != nil || res.Cost != 3.3 {
		t.Fatalf("one link: %+v, %v", res, err)
	}
	if from, _ := sp.Attr(AttrBoundRow); from.Str != BoundRowBuilt {
		t.Fatalf("one link: bound row %q", from.Str)
	}
	q := a.boundGrid // 2^(3−24): 2·3.3 rounds up to 8
	if want := []float32{float32(gridFloor(3.3, q)), 0}; q != math.Ldexp(1, -21) || rows.rows[1][0] != want[0] || rows.rows[1][1] != want[1] {
		t.Fatalf("one link: grid %v, row %v, want %v", q, rows.rows[1], want)
	}
	if _, err := a.Route(1, 0, &Options{Directed: DirectedAStar, Bound: rows}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("1→0 on a one-way link: %v", err)
	}

	// 0 →(1e-9)→ 1 →(1000)→ 2, and 0 →(1000.5)→ 2 directly: the grid for
	// n·maxW ≈ 3000 is 2⁻¹², far above 1e-9.
	tiny := wdm.NewNetwork(3, 1)
	for _, l := range []struct {
		from, to int
		w        float64
	}{{0, 1, 1e-9}, {1, 2, 1000}, {0, 2, 1000.5}} {
		if _, err := tiny.AddLink(l.from, l.to, []wdm.Channel{{Lambda: 0, Weight: l.w}}); err != nil {
			t.Fatal(err)
		}
	}
	a = mustAux(t, tiny)
	if a.boundGrid <= 1e-9 {
		t.Fatalf("grid %v: the fixture's light link is not below it", a.boundGrid)
	}
	rows = &keepRows{rows: make(map[int][]float32), build: true}
	for ask := 0; ask < 2; ask++ {
		res, err := a.Route(0, 2, &Options{Directed: DirectedAStar, Bound: rows})
		if err != nil || res.Cost != 1e-9+1000 || res.Path.Len() != 2 {
			t.Fatalf("ask %d: %+v, %v", ask, res, err)
		}
	}
	if row := rows.rows[2]; row[0] != 1000 || row[1] != 1000 || row[2] != 0 {
		t.Fatalf("row toward 2 = %v, want [1000 1000 0]: the light link weighs 0 in the bound", row)
	}
}

// TestProtectedBackupBorrowsNoRows: the backup of a protected pair is
// routed on the network stripped of the primary's links. A row built
// there would overestimate on the real network, and a row of the real
// network says nothing about which links were stripped, so that query
// must neither store nor read: the pair is the one found without rows,
// and every row the call left behind is the real network's.
func TestProtectedBackupBorrowsNoRows(t *testing.T) {
	for name, nw := range directedFixtures(t, directedConvs["uniform"]) {
		a := mustAux(t, nw)
		n := nw.NumNodes()
		// Under second-ask admission the primary is a destination's first
		// ask and the backup, were it lent the rows, its second: the one
		// that builds.
		rows := &secondAsk{keepRows: keepRows{rows: make(map[int][]float32)}, asked: make(map[int]bool)}
		for s := 0; s < n; s++ {
			d := (s + n/2) % n
			if s == d {
				continue
			}
			want, errW := a.RouteProtected(s, d, &ProtectOptions{Route: astarOpts})
			// Twice: the second primary is the ask that does build.
			for ask := 0; ask < 2; ask++ {
				got, errG := a.RouteProtected(s, d, &ProtectOptions{
					Route: &Options{Directed: DirectedAStar, Bound: rows}})
				if (errW == nil) != (errG == nil) || errW != nil && errW.Error() != errG.Error() {
					t.Fatalf("%s %d→%d: %v without rows, %v with", name, s, d, errW, errG)
				}
				if errW == nil && (got.Primary.Cost != want.Primary.Cost || got.Backup.Cost != want.Backup.Cost) {
					t.Fatalf("%s %d→%d: pair costs %v/%v with rows, %v/%v without", name, s, d,
						got.Primary.Cost, got.Backup.Cost, want.Primary.Cost, want.Backup.Cost)
				}
			}
		}
		if len(rows.rows) == 0 {
			t.Fatalf("%s: no primary stored a row", name)
		}
		for d, row := range rows.rows {
			fresh := &keepRows{rows: make(map[int][]float32), build: true}
			if _, err := a.Route((d+1)%n, d, &Options{Directed: DirectedAStar, Bound: fresh}); err != nil && !errors.Is(err, ErrNoRoute) {
				t.Fatal(err)
			}
			for v := range row {
				if want, ok := fresh.rows[d]; ok && row[v] != want[v] {
					t.Fatalf("%s: the row toward %d has π(%d) = %v, the network's own is %v", name, d, v, row[v], want[v])
				}
			}
		}
	}
}
