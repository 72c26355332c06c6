package flowbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// jobsSHA256 hashes every field of every job, in order, so a golden pins the
// generated values and the order the splits hold them in.
func jobsSHA256(jobs []Job) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, j := range jobs {
		str(string(j.Workflow))
		put(uint64(j.TraceID))
		put(uint64(j.NodeIndex))
		str(j.TaskType)
		for _, f := range j.Features {
			put(math.Float64bits(f))
		}
		put(uint64(j.Label))
		put(uint64(j.Anomaly))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func splitHashes(ds *Dataset) [3]string {
	return [3]string{jobsSHA256(ds.Train), jobsSHA256(ds.Val), jobsSHA256(ds.Test)}
}

// TestGenerateGolden pins Generate bit for bit: every split of all three
// workflows, and one stratified Subsample of them. The datasets feed every
// trained artifact, so any change to generation order, RNG draws or the
// split shuffles shows here first.
func TestGenerateGolden(t *testing.T) {
	want := map[Workflow][3]string{
		Genome: {
			"1ebc1fef4edac45ccf44e9a281f52b928a588c4097c49e36d0f79611bd30c500",
			"ab4e4885ee16682c7236d2f73700169168a083cfaefd55299d73a32d76b72b60",
			"d3d35fa2a8de5b2b0fec6ad3ed367ea7f467103b3b11c33710cc6ab4fe9b3f62",
		},
		Montage: {
			"a792588277511daa8f9662a9ce35a86b2a2283c30837f3648c8ea4a217135ec5",
			"250d1f6e64d71b80dbd72b56c58fc5b64b47fdde436a27dfabe7b58924222d3a",
			"5241a217e6a350a1b0d98f73f33ddd0713a0ef5d8b3227fb1ffb1fd6b62d2d4c",
		},
		Sales: {
			"4326747ea5b99626cf0efc1110454ed7ac262f2bd0490d7ad7d5ae10b82a050a",
			"7cfb2148f9b6212037cbd7db6e38c746e0c8efd62f298a10b0bfcf3b39881108",
			"eaf83cb58a9dcd9ba7ad91f27cc18324c79fb8e47e86fb1ff422a180e4885b97",
		},
	}
	wantSub := [3]string{
		"cefbbaa0bbbbde4e780f9412b8ac6f21edd14ff2cab7529dacf714397cfb7221",
		"36c38964d34d2020cc17e9a258563008ef9ee5df26afa8434bc785d9181c3304",
		"bd3b6bbb74fad8b7d23635ef7993ab72400536a9ea686c38fa61715c1c0ebb44",
	}
	for _, wf := range Workflows {
		ds := Generate(wf, 42)
		if got := splitHashes(ds); got != want[wf] {
			t.Errorf("%s splits drifted:\n got  %q\n want %q", wf, got, want[wf])
		}
		if wf == Genome {
			if got := splitHashes(ds.Subsample(1000, 200, 300, 43)); got != wantSub {
				t.Errorf("%s Subsample drifted:\n got  %q\n want %q", wf, got, wantSub)
			}
		}
	}
}
