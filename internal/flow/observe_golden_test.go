package flow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/polybench"
)

// Goldens for TestObserveSequenceGoldenGemm, recorded from the map-environment
// interpreter. A pipeline change that alters gemm's adapted IR moves them
// deliberately; an execution-model change must not.
const (
	gemmObserveCount  = 18458
	gemmObserveDigest = "8cf393a2cadc5755b7303a2ee182d71cfa9893e84ea43fd61030743f7ff7d137"
	gemmMemoryDigest  = "fea048714dca663f37a2bba96e1e77349b6cd7c2cb8437507729212172a9f82c"
)

// TestObserveSequenceGoldenGemm pins the LLVM machine's full Observe stream
// — every phi and instruction result, in execution order — and the final
// memory image for gemm MINI through the adaptor flow.
func TestObserveSequenceGoldenGemm(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	res, err := AdaptorFlow(k.Build(s), "gemm", Directives{}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	bufs := k.NewBuffers(s)
	polybench.Init(bufs)
	mems := make([]*interp.Mem, len(bufs))
	args := make([]interp.Arg, len(bufs))
	for i, buf := range bufs {
		mems[i] = interp.NewMem(int64(len(buf)) * 4)
		for x, v := range buf {
			mems[i].SetFloat32(x, v)
		}
		args[i] = interp.PtrArg(mems[i], 0)
	}
	var obs hash.Hash = sha256.New()
	count := 0
	mc := interp.NewMachine(res.LLVM)
	mc.Observe = func(in *llvm.Instr, v int64) {
		count++
		fmt.Fprintf(obs, "%s/%s=%d\n", in.Parent.Name, in.Name, v)
	}
	if _, _, err := mc.Run(context.Background(), "gemm", args...); err != nil {
		t.Fatal(err)
	}
	mem := sha256.New()
	for _, m := range mems {
		mem.Write(m.Bytes)
	}
	if count != gemmObserveCount {
		t.Errorf("observed %d results, want %d", count, gemmObserveCount)
	}
	if got := hex.EncodeToString(obs.Sum(nil)); got != gemmObserveDigest {
		t.Errorf("observe digest = %s, want %s", got, gemmObserveDigest)
	}
	if got := hex.EncodeToString(mem.Sum(nil)); got != gemmMemoryDigest {
		t.Errorf("memory digest = %s, want %s", got, gemmMemoryDigest)
	}
}
