package dnnparallel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCanonical: DecodeScenario never panics, whatever the bytes, and
// Canonical is idempotent — decoding a scenario's canonical bytes and
// canonicalizing again gives the same bytes, so a cache key is a fixed
// point. Seeded from every example scenario. Run it with
//
//	go test -run '^$' -fuzz=FuzzCanonical -fuzztime=10s .
func FuzzCanonical(f *testing.F) {
	files, err := filepath.Glob("examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario files: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// An explicit single stage next to a pipeline block normalizes away.
	f.Add([]byte(`{"network":"alexnet","batch":2048,"procs":512,"pipeline_stages":1,"pipeline":{"stages":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(data)
		if err != nil {
			return
		}
		key, err := sc.Canonical()
		if err != nil {
			return
		}
		again, err := DecodeScenario(key)
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", key, err)
		}
		key2, err := again.Canonical()
		if err != nil {
			t.Fatalf("canonical bytes %s do not validate: %v", key, err)
		}
		if !bytes.Equal(key, key2) {
			t.Fatalf("Canonical is not idempotent:\n%s\n%s", key, key2)
		}
	})
}
