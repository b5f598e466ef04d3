package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCacheLoadDisk drives arbitrary bytes through Cache.LoadDisk, the
// decoder of the eval-cache spill file. It must never panic and may error
// only on I/O, so a damaged file always degrades to a colder cache; what it
// accepts must re-save to bytes that round-trip stably. The seeded corpus
// under testdata/fuzz/FuzzCacheLoadDisk pins the interesting shapes.
func FuzzCacheLoadDisk(f *testing.F) {
	const hdr = `{"kind":"gemini-eval-cache","version":1}` + "\n"
	entry := `{"a":"00000000000000a1","g":"00000000000000b2","f":"00000000000000c3","r":{"Feasible":true,"Passes":2,"Delay":1.5e-3,"Energy":{"MAC":1}}}` + "\n"
	for _, s := range []string{
		"",
		hdr,
		hdr + entry,
		hdr + entry[:len(entry)/2],
		hdr + "garbage\n" + entry,
		`{"kind":"gemini-eval-cache","version":2}` + "\n" + entry,
		hdr + `{"a":"A1","g":"ffffffffffffffff","f":"0","r":{}}` + "\n",
		hdr + `{"a":"00000000000000001","g":"1","f":"1x","r":{}}` + "\n",
		hdr + entry + entry,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.ndjson")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		n, err := c.LoadDisk(in)
		if err != nil {
			t.Fatalf("LoadDisk errored without an I/O failure: %v", err)
		}
		if e := c.Stats().Entries; e != n {
			t.Fatalf("loaded %d entries, cache holds %d", n, e)
		}
		first, second := filepath.Join(dir, "first"), filepath.Join(dir, "second")
		if err := c.SaveDisk(first); err != nil {
			t.Fatal(err)
		}
		again := NewCache()
		if m, err := again.LoadDisk(first); err != nil || m != n {
			t.Fatalf("re-load of the saved file: %d entries, %v; want %d", m, err, n)
		}
		if err := again.SaveDisk(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		b, _ := os.ReadFile(second)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", a, b)
		}
	})
}
