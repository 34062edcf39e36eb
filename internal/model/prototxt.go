package model

import (
	"fmt"
	"strconv"
)

// This file implements the front door of the paper's deployment flow
// (Fig. 1): networks arrive as Caffe-style prototxt descriptions
// (*.prototxt defines the structure). The dialect below covers what the
// INCA compiler can lower — convolutions (dense and depthwise), pooling,
// ReLU, element-wise addition, and the CPU-side heads — using Caffe's
// layer/block syntax:
//
//	name: "example"
//	input_shape { dim: 3 dim: 120 dim: 160 }
//	layer {
//	  name: "conv1"
//	  type: "Convolution"
//	  bottom: "data"
//	  top: "conv1"
//	  convolution_param {
//	    num_output: 16  kernel_size: 3  stride: 1  pad: 1  group: 1
//	  }
//	}
//	layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "conv1" }
//	layer {
//	  name: "pool1" type: "Pooling" bottom: "conv1" top: "pool1"
//	  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
//	}
//	layer { name: "sum" type: "Eltwise" bottom: "a" bottom: "b" top: "sum" }
//
// ReLU layers with top == bottom fuse into the producing convolution, as
// Caffe deployments conventionally write them.

// protoToken is one lexical token of the prototxt stream.
type protoToken struct {
	kind protoKind
	text string
	line int
}

type protoKind int

const (
	tokIdent protoKind = iota
	tokString
	tokNumber
	tokColon
	tokLBrace
	tokRBrace
)

func lexProto(src string) ([]protoToken, error) {
	var toks []protoToken
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, protoToken{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, protoToken{tokRBrace, "}", line})
			i++
		case c == ':':
			toks = append(toks, protoToken{tokColon, ":", line})
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\n' {
					return nil, fmt.Errorf("prototxt:%d: unterminated string", line)
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("prototxt:%d: unterminated string", line)
			}
			toks = append(toks, protoToken{tokString, src[i+1 : j], line})
			i = j + 1
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(src) && (src[j] == '.' || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			toks = append(toks, protoToken{tokNumber, src[i:j], line})
			i = j
		case isIdentChar(c):
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, protoToken{tokIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("prototxt:%d: unexpected character %q", line, c)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// protoNode is a parsed message: scalar fields (repeated allowed) and
// nested blocks.
type protoNode struct {
	fields map[string][]string
	blocks map[string][]*protoNode
	line   int
}

func newProtoNode(line int) *protoNode {
	return &protoNode{fields: map[string][]string{}, blocks: map[string][]*protoNode{}, line: line}
}

// parseProtoBody parses `key: value` and `key { ... }` entries until the
// closing brace (or end of input at top level).
func parseProtoBody(toks []protoToken, pos int, top bool) (*protoNode, int, error) {
	node := newProtoNode(0)
	if pos < len(toks) {
		node.line = toks[pos].line
	}
	for pos < len(toks) {
		t := toks[pos]
		if t.kind == tokRBrace {
			if top {
				return nil, 0, fmt.Errorf("prototxt:%d: unexpected '}'", t.line)
			}
			return node, pos + 1, nil
		}
		if t.kind != tokIdent {
			return nil, 0, fmt.Errorf("prototxt:%d: expected field name, got %q", t.line, t.text)
		}
		key := t.text
		pos++
		if pos >= len(toks) {
			return nil, 0, fmt.Errorf("prototxt:%d: dangling field %q", t.line, key)
		}
		switch toks[pos].kind {
		case tokColon:
			pos++
			if pos >= len(toks) {
				return nil, 0, fmt.Errorf("prototxt:%d: missing value for %q", t.line, key)
			}
			v := toks[pos]
			if v.kind != tokString && v.kind != tokNumber && v.kind != tokIdent {
				return nil, 0, fmt.Errorf("prototxt:%d: bad value for %q", v.line, key)
			}
			node.fields[key] = append(node.fields[key], v.text)
			pos++
		case tokLBrace:
			child, next, err := parseProtoBody(toks, pos+1, false)
			if err != nil {
				return nil, 0, err
			}
			node.blocks[key] = append(node.blocks[key], child)
			pos = next
		default:
			return nil, 0, fmt.Errorf("prototxt:%d: expected ':' or '{' after %q", toks[pos].line, key)
		}
	}
	if !top {
		return nil, 0, fmt.Errorf("prototxt: unexpected end of input inside a block")
	}
	return node, pos, nil
}

func (n *protoNode) str(key string) (string, bool) {
	if v, ok := n.fields[key]; ok && len(v) > 0 {
		return v[0], true
	}
	return "", false
}

func (n *protoNode) intOr(key string, def int) (int, error) {
	v, ok := n.str(key)
	if !ok {
		return def, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("prototxt:%d: field %s: %v", n.line, key, err)
	}
	return i, nil
}

// ParsePrototxt builds a Network from a Caffe-style description.
func ParsePrototxt(src string) (*Network, error) {
	toks, err := lexProto(src)
	if err != nil {
		return nil, err
	}
	root, _, err := parseProtoBody(toks, 0, true)
	if err != nil {
		return nil, err
	}

	name, _ := root.str("name")
	if name == "" {
		name = "prototxt"
	}
	shapes := root.blocks["input_shape"]
	if len(shapes) != 1 {
		return nil, fmt.Errorf("prototxt: need exactly one input_shape block, got %d", len(shapes))
	}
	dims := shapes[0].fields["dim"]
	// Caffe writes N,C,H,W or C,H,W; accept both.
	if len(dims) == 4 {
		dims = dims[1:]
	}
	if len(dims) != 3 {
		return nil, fmt.Errorf("prototxt: input_shape needs 3 or 4 dims, got %d", len(dims))
	}
	var chw [3]int
	for i, d := range dims {
		v, err := strconv.Atoi(d)
		if err != nil {
			return nil, fmt.Errorf("prototxt: bad dim %q", d)
		}
		chw[i] = v
	}
	net := New(name, chw[0], chw[1], chw[2])

	// blob name -> producing layer index.
	blobs := map[string]int{"data": 0, "input": 0}

	resolve := func(node *protoNode, bottom string) (int, error) {
		idx, ok := blobs[bottom]
		if !ok {
			return 0, fmt.Errorf("prototxt:%d: unknown bottom blob %q", node.line, bottom)
		}
		return idx, nil
	}

	for _, l := range root.blocks["layer"] {
		lname, _ := l.str("name")
		ltype, ok := l.str("type")
		if !ok {
			return nil, fmt.Errorf("prototxt:%d: layer %q missing type", l.line, lname)
		}
		bottoms := l.fields["bottom"]
		top, hasTop := l.str("top")
		if !hasTop {
			top = lname
		}
		switch ltype {
		case "Input":
			blobs[top] = 0
		case "Convolution":
			if len(bottoms) != 1 {
				return nil, fmt.Errorf("prototxt:%d: Convolution %q needs one bottom", l.line, lname)
			}
			from, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			params := l.blocks["convolution_param"]
			if len(params) != 1 {
				return nil, fmt.Errorf("prototxt:%d: Convolution %q needs convolution_param", l.line, lname)
			}
			p := params[0]
			numOut, err := p.intOr("num_output", 0)
			if err != nil {
				return nil, err
			}
			if numOut <= 0 {
				return nil, fmt.Errorf("prototxt:%d: Convolution %q needs num_output", l.line, lname)
			}
			k, err := p.intOr("kernel_size", 0)
			if err != nil {
				return nil, err
			}
			if k <= 0 {
				return nil, fmt.Errorf("prototxt:%d: Convolution %q needs kernel_size", l.line, lname)
			}
			stride, err := p.intOr("stride", 1)
			if err != nil {
				return nil, err
			}
			pad, err := p.intOr("pad", 0)
			if err != nil {
				return nil, err
			}
			group, err := p.intOr("group", 1)
			if err != nil {
				return nil, err
			}
			idx := net.Add(Layer{
				Name: lname, Kind: KindConv, Inputs: []int{from},
				OutC: numOut, KH: k, KW: k, Stride: stride, Pad: pad, Groups: group,
			})
			blobs[top] = idx
		case "ReLU":
			if len(bottoms) != 1 {
				return nil, fmt.Errorf("prototxt:%d: ReLU %q needs one bottom", l.line, lname)
			}
			from, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			target := &net.Layers[from]
			if target.Kind != KindConv && target.Kind != KindAdd {
				return nil, fmt.Errorf("prototxt:%d: ReLU %q must follow a Convolution or Eltwise (got %v)", l.line, lname, target.Kind)
			}
			target.ReLU = true
			blobs[top] = from // in-place
		case "Pooling":
			if len(bottoms) != 1 {
				return nil, fmt.Errorf("prototxt:%d: Pooling %q needs one bottom", l.line, lname)
			}
			from, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			params := l.blocks["pooling_param"]
			if len(params) != 1 {
				return nil, fmt.Errorf("prototxt:%d: Pooling %q needs pooling_param", l.line, lname)
			}
			p := params[0]
			if mode, ok := p.str("pool"); ok && mode != "MAX" {
				return nil, fmt.Errorf("prototxt:%d: Pooling %q: only MAX pooling is supported, got %s", l.line, lname, mode)
			}
			k, err := p.intOr("kernel_size", 0)
			if err != nil {
				return nil, err
			}
			if k <= 0 {
				return nil, fmt.Errorf("prototxt:%d: Pooling %q needs kernel_size", l.line, lname)
			}
			stride, err := p.intOr("stride", k)
			if err != nil {
				return nil, err
			}
			blobs[top] = net.MaxPool(lname, from, k, stride)
		case "Eltwise":
			if len(bottoms) != 2 {
				return nil, fmt.Errorf("prototxt:%d: Eltwise %q needs two bottoms", l.line, lname)
			}
			a, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			b, err := resolve(l, bottoms[1])
			if err != nil {
				return nil, err
			}
			blobs[top] = net.Residual(lname, a, b, false)
		case "GlobalPooling":
			from, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			blobs[top] = net.Add(Layer{Name: lname, Kind: KindGlobalPool, Inputs: []int{from}})
		case "GeM":
			from, err := resolve(l, bottoms[0])
			if err != nil {
				return nil, err
			}
			blobs[top] = net.Add(Layer{Name: lname, Kind: KindGeMPool, Inputs: []int{from}})
		default:
			return nil, fmt.Errorf("prototxt:%d: unsupported layer type %q", l.line, ltype)
		}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if _, err := net.InferShapes(); err != nil {
		return nil, err
	}
	return net, nil
}
