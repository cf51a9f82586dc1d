package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Server is one device-server endpoint in the fleet.
type Server struct {
	// Name identifies the server in placement and health reporting; it
	// must be unique across the fleet. Placement hashes the name, so
	// renaming a server moves data.
	Name string `json:"name"`
	// URL is the device server's base URL (http://host:port).
	URL string `json:"url"`
	// Spare marks a server held out of placement as a rebuild target.
	Spare bool `json:"spare,omitempty"`
}

// Fleet is the set of device servers a volume can place columns on.
// The on-disk form is JSON:
//
//	{"servers": [
//	  {"name": "dev0", "url": "http://127.0.0.1:9000"},
//	  {"name": "dev6", "url": "http://127.0.0.1:9006", "spare": true}
//	]}
type Fleet struct {
	Servers []Server `json:"servers"`
}

// ParseFleet decodes and validates a fleet description.
func ParseFleet(r io.Reader) (*Fleet, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f Fleet
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("cluster: parsing fleet: %w", err)
	}
	// A concatenated or half-edited file must not load its first value.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("cluster: parsing fleet: trailing data after the fleet object")
	}
	if len(f.Servers) == 0 {
		return nil, fmt.Errorf("cluster: fleet has no servers")
	}
	// Two entries with one URL would put two columns on one device.
	names := make(map[string]bool, len(f.Servers))
	urls := make(map[string]bool, len(f.Servers))
	for i, s := range f.Servers {
		if s.Name == "" {
			return nil, fmt.Errorf("cluster: fleet server %d has no name", i)
		}
		if s.URL == "" {
			return nil, fmt.Errorf("cluster: fleet server %q has no url", s.Name)
		}
		if names[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate fleet server name %q", s.Name)
		}
		if urls[s.URL] {
			return nil, fmt.Errorf("cluster: duplicate fleet server url %q", s.URL)
		}
		names[s.Name], urls[s.URL] = true, true
	}
	return &f, nil
}

// LoadFleet reads a fleet file from disk.
func LoadFleet(path string) (*Fleet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseFleet(f)
}

// Actives returns the servers eligible for placement.
func (f *Fleet) Actives() []Server {
	var out []Server
	for _, s := range f.Servers {
		if !s.Spare {
			out = append(out, s)
		}
	}
	return out
}

// Spares returns the servers held out as rebuild targets.
func (f *Fleet) Spares() []Server {
	var out []Server
	for _, s := range f.Servers {
		if s.Spare {
			out = append(out, s)
		}
	}
	return out
}
