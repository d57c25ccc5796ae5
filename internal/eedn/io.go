package eedn

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
)

// Serialization: networks are saved as JSON holding each layer's kind,
// geometry and hidden weights, so trained extractors and classifiers
// can be persisted by cmd/pcnn-train and reloaded elsewhere. Only the
// parameters needed for inference and further training are stored;
// optimizer state (momentum) is reset on load.

type layerJSON struct {
	Kind   string    `json:"kind"` // "dense" or "conv"
	Linear bool      `json:"linear,omitempty"`
	In     int       `json:"in,omitempty"`
	Out    int       `json:"out,omitempty"`
	InC    int       `json:"in_c,omitempty"`
	InH    int       `json:"in_h,omitempty"`
	InW    int       `json:"in_w,omitempty"`
	OutC   int       `json:"out_c,omitempty"`
	K      int       `json:"k,omitempty"`
	Stride int       `json:"stride,omitempty"`
	Groups int       `json:"groups,omitempty"`
	Hidden []float64 `json:"hidden"`
	Bias   []float64 `json:"bias"`
}

type netJSON struct {
	Version int         `json:"version"`
	Layers  []layerJSON `json:"layers"`
}

// Save writes the network as JSON.
func (n *Network) Save(w io.Writer) error {
	out := netJSON{Version: 1}
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, layerJSON{
				Kind: "dense", Linear: t.Linear, In: t.In, Out: t.Out,
				Hidden: t.Hidden, Bias: t.Bias,
			})
		case *Conv2D:
			out.Layers = append(out.Layers, layerJSON{
				Kind: "conv", InC: t.InC, InH: t.InH, InW: t.InW,
				OutC: t.OutC, K: t.K, Stride: t.Stride, Groups: t.Groups,
				Hidden: t.Hidden, Bias: t.Bias,
			})
		default:
			return fmt.Errorf("eedn: cannot serialize layer %d (%T)", i, l)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a network written by Save.
func Load(r io.Reader) (*Network, error) {
	var in netJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("eedn: decode: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("eedn: unsupported model version %d", in.Version)
	}
	if len(in.Layers) == 0 {
		return nil, fmt.Errorf("eedn: empty model")
	}
	var layers []Layer
	for i, lj := range in.Layers {
		switch lj.Kind {
		case "dense":
			nw, ok := mulSizes(lj.In, lj.Out)
			if !ok {
				return nil, fmt.Errorf("eedn: layer %d bad dims %dx%d", i, lj.In, lj.Out)
			}
			if len(lj.Hidden) != nw || len(lj.Bias) != lj.Out {
				return nil, fmt.Errorf("eedn: layer %d weight sizes %d/%d", i, len(lj.Hidden), len(lj.Bias))
			}
			d := &Dense{
				In: lj.In, Out: lj.Out, Linear: lj.Linear,
				Hidden: lj.Hidden, Bias: lj.Bias,
				vel:   make([]float64, nw),
				velB:  make([]float64, lj.Out),
				gradW: make([]float64, nw),
				gradB: make([]float64, lj.Out),

				deployed: new(atomic.Pointer[synapseRows]),
			}
			layers = append(layers, d)
		case "conv":
			c := &Conv2D{
				InC: lj.InC, InH: lj.InH, InW: lj.InW,
				OutC: lj.OutC, K: lj.K, Stride: lj.Stride, Groups: lj.Groups,
				Hidden: lj.Hidden, Bias: lj.Bias,
			}
			want, err := convGeometry(c.InC, c.InH, c.InW, c.OutC, c.K, c.Stride, c.Groups)
			if err != nil {
				return nil, fmt.Errorf("eedn: layer %d: %w", i, err)
			}
			if len(c.Hidden) != want || len(c.Bias) != c.OutC {
				return nil, fmt.Errorf("eedn: layer %d conv weight sizes", i)
			}
			c.vel = make([]float64, want)
			c.velB = make([]float64, c.OutC)
			c.gradW = make([]float64, want)
			c.gradB = make([]float64, c.OutC)
			layers = append(layers, c)
		default:
			return nil, fmt.Errorf("eedn: layer %d unknown kind %q", i, lj.Kind)
		}
	}
	return NewNetwork(layers...)
}
