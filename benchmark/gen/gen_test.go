package gen_test

import (
	"testing"

	"artemis/benchmark/gen"
	"artemis/benchmark/oracle"
)

// The seed is the only source of randomness: the same seed must give the
// same bytes, another seed other bytes.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range gen.Workloads {
		a, err := gen.Build(wl, 7, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen.Build(wl, 7, 1, nil)
		c, _ := gen.Build(wl, 8, 1, nil)
		if a.Hash != b.Hash {
			t.Errorf("%s: seed 7 hashed %s, then %s", wl, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", wl, a.Hash)
		}
	}
}

// What the generator says each probe must raise and what the serial
// detector raises from the events alone must be the same set; and no two
// route changes of one closed-loop pass may share the identity the
// cross-source dedup keys on, or the daemon would drop events the
// conservation check expects it to deliver.
func TestExpectationsMatchOracleAndIdentitiesAreUnique(t *testing.T) {
	type identity struct {
		vp       uint32
		withdraw bool
		prefix   string
		seen     int64
		path     [4]uint32
	}
	for _, wl := range gen.Workloads {
		orc := oracle.New(gen.NewWorld(wl))
		seen := map[identity]gen.Class{}
		mirrored, dups := 0, 0
		in, err := gen.Build(wl, 3, 2, func(g *gen.Group) {
			orc.Observe(g)
			id := identity{vp: g.VP, withdraw: g.Withdraw, seen: int64(g.Seen)}
			copy(id.path[:], g.Path)
			for _, p := range g.Prefixes {
				id.prefix = p.String()
				if _, dup := seen[id]; dup {
					dups++
				}
				seen[id] = g.Class
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if wl == gen.BMPFlood {
			// One group in four is sent on both sessions on purpose.
			for _, s := range in.Streams {
				for _, n := range s.ChunkEvents {
					mirrored += n
				}
			}
			mirrored /= 2 * 4
		}
		if dups != mirrored {
			t.Errorf("%s: %d repeated route-change identities, want %d", wl, dups, mirrored)
		}
		want := orc.Incidents()
		n := 0
		for _, es := range in.Expects() {
			for _, e := range es {
				for _, inc := range e.Incidents {
					n++
					if !want[inc] {
						t.Errorf("%s: generator expects %+v, the oracle does not raise it", wl, inc)
					}
				}
			}
		}
		if n != len(want) {
			t.Errorf("%s: generator expects %d incidents, the oracle raises %d", wl, n, len(want))
		}
	}
}
