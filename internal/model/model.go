// Package model defines the LLaMA-style transformer architectures used in the
// ReaL paper (Table 1) together with exact parameter counting and analytic
// FLOP/byte arithmetic. Everything downstream — the cost oracle, the memory
// model, the profiler and the estimator — consumes these numbers rather than
// real weights: for planning purposes a model *is* its shape.
package model

import "fmt"

// BytesPerParam is the storage size of one parameter or activation element in
// the mixed-precision regime the paper assumes (bf16).
const BytesPerParam = 2

// Config describes a GPT-like (LLaMA-3) transformer. The fields mirror
// Table 1 of the paper exactly.
type Config struct {
	Name                  string
	HiddenSize            int
	IntermediateSize      int
	NumLayers             int
	NumAttentionHeads     int
	NumKVHeads            int
	VocabSize             int
	MaxPositionEmbeddings int
}

// The four model sizes evaluated in the paper (Table 1).
var (
	LLaMA7B = Config{
		Name:                  "7b",
		HiddenSize:            4096,
		IntermediateSize:      14336,
		NumLayers:             32,
		NumAttentionHeads:     32,
		NumKVHeads:            8,
		VocabSize:             128256,
		MaxPositionEmbeddings: 8192,
	}
	LLaMA13B = Config{
		Name:                  "13b",
		HiddenSize:            5120,
		IntermediateSize:      13824,
		NumLayers:             40,
		NumAttentionHeads:     40,
		NumKVHeads:            40,
		VocabSize:             128256,
		MaxPositionEmbeddings: 8192,
	}
	LLaMA34B = Config{
		Name:                  "34b",
		HiddenSize:            8192,
		IntermediateSize:      22016,
		NumLayers:             48,
		NumAttentionHeads:     64,
		NumKVHeads:            8,
		VocabSize:             128256,
		MaxPositionEmbeddings: 8192,
	}
	LLaMA70B = Config{
		Name:                  "70b",
		HiddenSize:            8192,
		IntermediateSize:      28672,
		NumLayers:             80,
		NumAttentionHeads:     64,
		NumKVHeads:            8,
		VocabSize:             128256,
		MaxPositionEmbeddings: 8192,
	}
)

// ByName returns the named paper configuration ("7b", "13b", "34b", "70b").
func ByName(name string) (Config, error) {
	switch name {
	case "7b":
		return LLaMA7B, nil
	case "13b":
		return LLaMA13B, nil
	case "34b":
		return LLaMA34B, nil
	case "70b":
		return LLaMA70B, nil
	}
	return Config{}, fmt.Errorf("model: unknown config %q", name)
}

// All returns the paper's model family in ascending size order.
func All() []Config {
	return []Config{LLaMA7B, LLaMA13B, LLaMA34B, LLaMA70B}
}

// HeadDim is the per-head dimension of the attention projections.
func (c Config) HeadDim() int { return c.HiddenSize / c.NumAttentionHeads }

// KVHiddenSize is the total width of the key (or value) projection under
// grouped-query attention.
func (c Config) KVHiddenSize() int { return c.HeadDim() * c.NumKVHeads }

// LayerParams is the exact parameter count of one transformer layer:
// fused QKV projection, attention output projection, SwiGLU MLP (gate, up,
// down), and the two RMSNorm weights.
func (c Config) LayerParams() int64 {
	h := int64(c.HiddenSize)
	i := int64(c.IntermediateSize)
	kv := int64(c.KVHiddenSize())
	qkv := h * (h + 2*kv)
	attnOut := h * h
	mlp := 3 * h * i
	norms := 2 * h
	return qkv + attnOut + mlp + norms
}

// EmbedParams is the parameter count of one (input or output) embedding.
func (c Config) EmbedParams() int64 {
	return int64(c.VocabSize) * int64(c.HiddenSize)
}

// Params is the exact total parameter count including both embeddings and the
// final RMSNorm. For the configurations in Table 1 this reproduces the
// paper's TotalParamCount column digit-for-digit.
func (c Config) Params() int64 {
	return 2*c.EmbedParams() + int64(c.NumLayers)*c.LayerParams() + int64(c.HiddenSize)
}

// ParamsNoOutputEmbedding reproduces the paper's "ParamCount w./o. Output
// Embedding" column: the total minus one embedding matrix. The paper uses it
// as the size identifier for critic/reward models, whose output head maps to
// a scalar instead of the vocabulary.
func (c Config) ParamsNoOutputEmbedding() int64 {
	return c.Params() - c.EmbedParams()
}

// CriticParams is the parameter count of the critic/reward variant: the
// output embedding is replaced by a single scalar head of width HiddenSize.
func (c Config) CriticParams() int64 {
	return c.ParamsNoOutputEmbedding() + int64(c.HiddenSize)
}

// LayerParamBytes returns the bf16 byte footprint of one transformer layer.
func (c Config) LayerParamBytes() int64 { return c.LayerParams() * BytesPerParam }

// KVBytesPerTokenPerLayer is the KV-cache footprint of one token in one
// layer: a key and a value vector of KVHiddenSize each.
func (c Config) KVBytesPerTokenPerLayer() int64 {
	return 2 * int64(c.KVHiddenSize()) * BytesPerParam
}

// LayerFwdFLOPs returns the dense-compute FLOPs of a forward pass through a
// single transformer layer over `tokens` tokens whose average attention span
// is avgSpan (prefill over sequences of length s has avgSpan s/2; scoring a
// full sequence likewise; decoding at position p has avgSpan p).
//
// Matmul terms (multiply-accumulate counted as 2 FLOPs):
//
//	QKV projection:  2·T·h·(h+2·h_kv)
//	attention out:   2·T·h·h
//	QKᵀ and AV:      2·(2·T·span·h)
//	SwiGLU MLP:      3 matmuls of 2·T·h·i
func (c Config) LayerFwdFLOPs(tokens int64, avgSpan float64) float64 {
	h := float64(c.HiddenSize)
	i := float64(c.IntermediateSize)
	kv := float64(c.KVHiddenSize())
	t := float64(tokens)
	lin := 2*t*h*(h+2*kv) + 2*t*h*h + 6*t*h*i
	attn := 4 * t * avgSpan * h
	return lin + attn
}

// HeadFLOPs returns the FLOPs of the output head (logits) over tokens.
// Critic-style scalar heads are ~vocab× cheaper and are treated as free.
func (c Config) HeadFLOPs(tokens int64) float64 {
	return 2 * float64(tokens) * float64(c.HiddenSize) * float64(c.VocabSize)
}

// FwdFLOPs returns the FLOPs of a full forward pass (all layers plus output
// head) over tokens with the given average attention span. withHead selects
// whether the vocabulary projection is included (actors) or not (critics,
// reward models, and intermediate pipeline stages).
func (c Config) FwdFLOPs(tokens int64, avgSpan float64, withHead bool) float64 {
	f := float64(c.NumLayers) * c.LayerFwdFLOPs(tokens, avgSpan)
	if withHead {
		f += c.HeadFLOPs(tokens)
	}
	return f
}

// TrainFLOPs returns the FLOPs of one forward+backward pass: the backward
// pass costs ~2× the forward matmuls.
func (c Config) TrainFLOPs(tokens int64, avgSpan float64, withHead bool) float64 {
	return 3 * c.FwdFLOPs(tokens, avgSpan, withHead)
}

func (c Config) String() string {
	return fmt.Sprintf("llama-%s(h=%d,L=%d)", c.Name, c.HiddenSize, c.NumLayers)
}
