package dnn

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads a DNN description in the framework's plain-text format and
// builds a graph, playing the role of the paper's Model Parser ("extract
// DNN features"). The format is line-oriented:
//
//	# comment
//	model <name>
//	input <ref> <height> <width> <channels>
//	conv <ref> <in> k=<out-channels> r=<kh> s=<kw> [stride=1] [pad=0] [groups=1]
//	pool <ref> <in> r=<window> [stride=1] [pad=0]
//	gap <ref> <in>
//	fc <ref> <in> k=<units>
//	proj <ref> <in> k=<units>
//	matmulT <ref> <a> <b>
//	matmul <ref> <a> <b>
//	softmax <ref> <in>
//	add <ref> <in1> <in2> [...]
//	concat <ref> <in1> <in2> [...]
//
// Each line defines a tensor reference; later lines refer to earlier ones.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	b := NewBuilder("parsed")
	refs := map[string]Ref{}
	named := false
	lineNo := 0

	get := func(name string) (Ref, error) {
		ref, ok := refs[name]
		if !ok {
			return Ref{}, fmt.Errorf("undefined tensor %q", name)
		}
		return ref, nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		args := fields[1:]
		fail := func(format string, a ...any) error {
			return fmt.Errorf("dnn: line %d: %w", lineNo, fmt.Errorf(format, a...))
		}

		start := len(b.g.Layers)
		switch op {
		case "model":
			if len(args) != 1 {
				return nil, fail("model needs a name")
			}
			b = NewBuilder(args[0])
			named = true
			refs = map[string]Ref{}
		case "input":
			if len(args) != 4 {
				return nil, fail("input needs <ref> <h> <w> <c>")
			}
			h, err1 := strconv.Atoi(args[1])
			w, err2 := strconv.Atoi(args[2])
			c, err3 := strconv.Atoi(args[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("input dims must be integers")
			}
			refs[args[0]] = b.Input(h, w, c)
		case "conv":
			if len(args) < 2 {
				return nil, fail("conv needs <ref> <in> options")
			}
			in, err := get(args[1])
			if err != nil {
				return nil, fail("%w", err)
			}
			kv, err := parseKV(args[2:], map[string]int{"stride": 1, "pad": 0, "groups": 1})
			if err != nil {
				return nil, fail("%w", err)
			}
			if kv["k"] == 0 || kv["r"] == 0 {
				return nil, fail("conv needs k= and r= (s defaults to r)")
			}
			sdim := kv["s"]
			if sdim == 0 {
				sdim = kv["r"]
			}
			refs[args[0]] = b.GroupedConv(args[0], in, kv["k"], kv["r"], sdim, kv["stride"], kv["pad"], kv["groups"])
		case "pool":
			in, kv, err := oneInputKV(args, get, map[string]int{"stride": 1, "pad": 0})
			if err != nil {
				return nil, fail("%w", err)
			}
			if kv["r"] == 0 {
				return nil, fail("pool needs r=")
			}
			refs[args[0]] = b.Pool(args[0], in, kv["r"], kv["stride"], kv["pad"])
		case "gap":
			in, _, err := oneInputKV(args, get, nil)
			if err != nil {
				return nil, fail("%w", err)
			}
			refs[args[0]] = b.GlobalPool(args[0], in)
		case "fc", "proj":
			in, kv, err := oneInputKV(args, get, nil)
			if err != nil {
				return nil, fail("%w", err)
			}
			if kv["k"] == 0 {
				return nil, fail("%s needs k=", op)
			}
			if op == "fc" {
				refs[args[0]] = b.FC(args[0], in, kv["k"])
			} else {
				refs[args[0]] = b.Proj(args[0], in, kv["k"])
			}
		case "matmul", "matmulT":
			if len(args) != 3 {
				return nil, fail("%s needs <ref> <a> <b>", op)
			}
			a, err := get(args[1])
			if err != nil {
				return nil, fail("%w", err)
			}
			bb, err := get(args[2])
			if err != nil {
				return nil, fail("%w", err)
			}
			if op == "matmulT" {
				refs[args[0]] = b.MatMulT(args[0], a, bb)
			} else {
				refs[args[0]] = b.MatMul(args[0], a, bb)
			}
		case "softmax":
			in, _, err := oneInputKV(args, get, nil)
			if err != nil {
				return nil, fail("%w", err)
			}
			refs[args[0]] = b.Softmax(args[0], in)
		case "add", "concat":
			if len(args) < 3 {
				return nil, fail("%s needs <ref> and >=2 inputs", op)
			}
			ins := make([]Ref, 0, len(args)-1)
			for _, n := range args[1:] {
				in, err := get(n)
				if err != nil {
					return nil, fail("%w", err)
				}
				ins = append(ins, in)
			}
			if op == "add" {
				refs[args[0]] = b.Add(args[0], ins...)
			} else {
				refs[args[0]] = b.Concat(ins...)
			}
		default:
			return nil, fail("unknown op %q", op)
		}
		// Check the layers this line added here, so a bad one is reported
		// against its line rather than by Build's whole-graph Validate.
		for i := start; i < len(b.g.Layers); i++ {
			if err := b.g.Layers[i].validate(i); err != nil {
				return nil, fail("%w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dnn: reading description: %w", err)
	}
	if !named {
		return nil, fmt.Errorf("dnn: description has no 'model' line")
	}
	return b.Build()
}

// ParseString parses a model description from a string.
func ParseString(s string) (*Graph, error) {
	return Parse(strings.NewReader(s))
}

func oneInputKV(args []string, get func(string) (Ref, error), defaults map[string]int) (Ref, map[string]int, error) {
	if len(args) < 2 {
		return Ref{}, nil, fmt.Errorf("needs <ref> <in>")
	}
	in, err := get(args[1])
	if err != nil {
		return Ref{}, nil, err
	}
	kv, err := parseKV(args[2:], defaults)
	return in, kv, err
}

func parseKV(args []string, defaults map[string]int) (map[string]int, error) {
	kv := map[string]int{}
	for k, v := range defaults {
		kv[k] = v
	}
	for _, a := range args {
		key, val, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("malformed option %q (want key=value)", a)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("option %q: %w", a, err)
		}
		kv[key] = n
	}
	return kv, nil
}
