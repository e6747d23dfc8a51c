package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/scene"
	"repro/internal/trace"
)

// TestArtifactRoundtrip: encode → decode → replay produces the same results
// as replaying the original artifact.
func TestArtifactRoundtrip(t *testing.T) {
	base := benchSceneFor(t, "room3", 0.1)
	frames := scene.PanSequence(base, 4, 2, 1)
	a, err := BuildRasterArtifact(context.Background(), frames, 4,
		distrib.SLIKind, 2, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeRasterArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeRasterArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	run := func(art *RasterArtifact) []*Result {
		m, err := NewMachine(frames[0], Config{Procs: 4, Distribution: distrib.SLIKind, TileSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(art); err != nil {
			t.Fatal(err)
		}
		rs, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want, got := run(a), run(b)
	for i := range want {
		wantJS, _ := json.Marshal(want[i])
		gotJS, _ := json.Marshal(got[i])
		if string(wantJS) != string(gotJS) {
			t.Errorf("frame %d: decoded artifact diverged\noriginal: %s\ndecoded:  %s",
				i, wantJS, gotJS)
		}
	}
}

// TestArtifactDecodeRejects pins the decode-time guards: bad magic, bad
// version and truncated streams all fail loudly.
func TestArtifactDecodeRejects(t *testing.T) {
	s := testScene(3, 20, 64)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 2,
		distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeRasterArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := DecodeRasterArtifact(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	for _, v := range []byte{1, 99} { // v1 (routed triangles only) and unknown
		bad := append([]byte(nil), good...)
		bad[4] = v // version varint
		if _, err := DecodeRasterArtifact(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: err = %v, want a version error", v, err)
		}
	}
	if _, err := DecodeRasterArtifact(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := DecodeRasterArtifact(bytes.NewReader(append(good[:len(good):len(good)], 0))); err == nil {
		t.Error("trailing data accepted")
	}
}

// FuzzDecodeRasterArtifact: decoding arbitrary bytes never panics, and a
// stream the decoder accepts re-encodes to exactly the same bytes. Seeds:
// testdata/fuzz/FuzzDecodeRasterArtifact plus freshly built artifacts.
func FuzzDecodeRasterArtifact(f *testing.F) {
	s := testScene(3, 12, 48)
	for _, opts := range []ArtifactOpts{{}, {SpansOnly: true}} {
		a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s, s}, 2,
			distrib.BlockKind, 16, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeRasterArtifact(&buf, a); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeRasterArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeRasterArtifact(&buf, a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted stream re-encodes differently\ninput:   %x\nencoded: %x", data, buf.Bytes())
		}
	})
}
