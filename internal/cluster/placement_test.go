package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func fleetOf(names ...string) []Server {
	out := make([]Server, len(names))
	for i, n := range names {
		out[i] = Server{Name: n, URL: "http://" + n}
	}
	return out
}

// badFleets are fleet files ParseFleet must refuse.
var badFleets = []struct {
	name, body, wantErr string
}{
	{"empty", `{"servers":[]}`, "no servers"},
	{"unnamed", `{"servers":[{"url":"http://x"}]}`, "no name"},
	{"noURL", `{"servers":[{"name":"a"}]}`, "no url"},
	{"dup", `{"servers":[{"name":"a","url":"http://x"},{"name":"a","url":"http://y"}]}`, "duplicate"},
	{"dupURL", `{"servers":[{"name":"a","url":"http://x"},{"name":"b","url":"http://x"}]}`, "duplicate"},
	{"unknownField", `{"servers":[],"extra":1}`, "parsing"},
	{"trailing", `{"servers":[{"name":"a","url":"http://a"}]} {"servers":[]} junk`, "trailing"},
	{"trailingBrace", `{"servers":[{"name":"a","url":"http://a"}]}}`, "trailing"},
}

func TestParseFleetValidation(t *testing.T) {
	for _, tc := range badFleets {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFleet(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseFleet = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}

	f, err := ParseFleet(strings.NewReader(`{"servers":[
		{"name":"a","url":"http://a"},
		{"name":"b","url":"http://b","spare":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Actives()) != 1 || f.Actives()[0].Name != "a" {
		t.Fatalf("Actives = %v", f.Actives())
	}
	if len(f.Spares()) != 1 || f.Spares()[0].Name != "b" {
		t.Fatalf("Spares = %v", f.Spares())
	}
}

// FuzzParseFleet: no input panics ParseFleet, and every fleet it
// accepts has unique, non-empty names and URLs and survives a
// marshal/parse round trip unchanged.
func FuzzParseFleet(f *testing.F) {
	golden, err := os.ReadFile("testdata/fleet.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, tc := range badFleets {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fleet, err := ParseFleet(bytes.NewReader(data))
		if err != nil {
			return
		}
		names, urls := map[string]bool{}, map[string]bool{}
		for _, s := range fleet.Servers {
			if s.Name == "" || s.URL == "" || names[s.Name] || urls[s.URL] {
				t.Fatalf("accepted server %+v in %+v", s, fleet.Servers)
			}
			names[s.Name], urls[s.URL] = true, true
		}
		enc, err := json.Marshal(fleet)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseFleet(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-parsing %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back, fleet) {
			t.Fatalf("round trip changed the fleet: %+v → %+v", fleet.Servers, back.Servers)
		}
	})
}

func TestPlacementDistinctAndDeterministic(t *testing.T) {
	servers := fleetOf("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7")
	a, err := Place("vol", 6, servers)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for col, s := range a {
		if seen[s.Name] {
			t.Fatalf("server %s placed twice (column %d)", s.Name, col)
		}
		seen[s.Name] = true
	}
	b, err := Place("vol", 6, servers)
	if err != nil {
		t.Fatal(err)
	}
	for col := range a {
		if a[col].Name != b[col].Name {
			t.Fatalf("placement not deterministic at column %d: %s vs %s", col, a[col].Name, b[col].Name)
		}
	}
	// A different volume name should (for this fleet) shuffle at least
	// one column — the hash actually keys on the volume.
	c, err := Place("other-vol", 6, servers)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for col := range a {
		if a[col].Name != c[col].Name {
			same = false
		}
	}
	if same {
		t.Fatal("two distinct volumes produced identical placements on an 8-server fleet")
	}
}

// Removing a server not used by the placement must not move any column
// (rendezvous stability).
func TestPlacementStableUnderUnrelatedChange(t *testing.T) {
	servers := fleetOf("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7")
	before, err := Place("vol", 4, servers)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, s := range before {
		used[s.Name] = true
	}
	var pruned []Server
	removed := false
	for _, s := range servers {
		if !used[s.Name] && !removed {
			removed = true // drop one unused server
			continue
		}
		pruned = append(pruned, s)
	}
	if !removed {
		t.Skip("placement used every server; nothing unrelated to remove")
	}
	after, err := Place("vol", 4, pruned)
	if err != nil {
		t.Fatal(err)
	}
	for col := range before {
		if before[col].Name != after[col].Name {
			t.Fatalf("column %d moved (%s → %s) when an unrelated server left",
				col, before[col].Name, after[col].Name)
		}
	}
}

func TestPlacementTooFewServers(t *testing.T) {
	if _, err := Place("vol", 6, fleetOf("a", "b")); err == nil {
		t.Fatal("placing 6 columns on 2 servers succeeded")
	}
}
