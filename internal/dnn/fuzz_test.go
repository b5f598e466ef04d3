package dnn

import "testing"

// FuzzParse drives arbitrary text through Parse, the decoder behind
// `gemini-map -model @file`. It must never panic, and every graph it
// accepts must pass Validate. The seeded corpus under
// testdata/fuzz/FuzzParse pins the interesting shapes.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"model m\n",
		sampleDesc,
		"model m\ninput x 8 8 4\nconv c x k=4 r=3 stride=0\n",
		"model m\ninput x 8 8 4\npool p x r=2 pad=-1\n",
		"model m\ninput x 8 8 4\nconv c x k=8 r=1 groups=3\n",
		"model m\ninput x 4 1 8\nproj q x k=8\nmatmulT s q q\nsoftmax a s\nmatmul o a q\n",
		"model m\ninput x 8 8 4\nconcat y x x\nadd z y y\n",
		"input x 8 8 4\n",
		"model m\nconv c nowhere k=1 r=1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, desc string) {
		g, err := ParseString(desc)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Parse accepted a graph that fails Validate: %v", err)
		}
	})
}
