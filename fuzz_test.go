package gddr

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzUnmarshalEvent fuzzes the topology-event wire surface that
// POST /topology/event feeds untrusted bytes into. Invariants: the parser
// never panics, an accepted event has a kind the marshaller knows, and the
// Marshal/Unmarshal pair is a fixed point — re-encoding an accepted event
// and parsing it again must reproduce the same wire bytes.
func FuzzUnmarshalEvent(f *testing.F) {
	seeds := []string{
		`{"type":"link_down","from":2,"to":9}`,
		`{"type":"link_up","from":0,"to":1,"capacity":9920}`,
		`{"type":"capacity_change","from":3,"to":4,"capacity":0.5}`,
		`{"type":"node_add","name":"edge-1","attach_to":[0,2],"capacity":100}`,
		`{"type":"node_remove","node":7}`,
		`{"type":"unknown_kind"}`,
		`{"type":"link_down","from":-1,"to":1e999}`,
		`not json at all`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEvent(data)
		if err != nil {
			return
		}
		wire, err := MarshalEvent(e)
		if err != nil {
			t.Fatalf("accepted event %#v does not marshal: %v", e, err)
		}
		e2, err := UnmarshalEvent(wire)
		if err != nil {
			t.Fatalf("marshalled form %s of accepted event does not parse: %v", wire, err)
		}
		wire2, err := MarshalEvent(e2)
		if err != nil {
			t.Fatalf("round-tripped event %#v does not marshal: %v", e2, err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("event wire form is not a fixed point: %s != %s", wire, wire2)
		}
	})
}

// FuzzParseFleetFile fuzzes the fleet-config surface behind -fleet and the
// POST /tenants admin endpoint. Invariants: the parser never panics, and an
// accepted file is fully resolved — Default names a configured tenant and
// every tenant config (re-)validates.
func FuzzParseFleetFile(f *testing.F) {
	seeds := []string{
		// The CI smoke-test fleet.
		`{"default":"prod","tenants":{"prod":{"topology":"abilene"},"nsf":{"topology":"nsfnet"},"b4":{"topology":"b4"}}}`,
		`{"tenants":{"default":{"topology":"abilene"}}}`,
		`{"tenants":{"solo":{"topology":"geant","rate_limit":500,"burst":50}}}`,
		`{"default":"ghost","tenants":{"prod":{"topology":"abilene"}}}`,
		`{"tenants":{}}`,
		`{"tenants":{"bad id!":{"topology":"abilene"}}}`,
		`{"unknown_field":1,"tenants":{"t":{"topology":"abilene"}}}`,
		`[]`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ParseFleetFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(file.Tenants) == 0 {
			t.Fatal("accepted fleet file has no tenants")
		}
		if _, ok := file.Tenants[file.Default]; !ok {
			t.Fatalf("accepted fleet file default %q names no configured tenant", file.Default)
		}
		for id, cfg := range file.Tenants {
			if strings.TrimSpace(id) == "" {
				t.Fatalf("accepted fleet file has blank tenant id %q", id)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted tenant %q fails validation: %v", id, err)
			}
		}
	})
}
