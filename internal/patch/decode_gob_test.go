package patch_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"kshot/internal/corpusgen"
	"kshot/internal/cvebench"
	"kshot/internal/kernel"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
)

// requireMatchesGob holds patch.Encode and patch.Decode to gob's own
// encoder and decoder on plain, the output of Encode: gob must write
// the same bytes for the patch it reads from plain, and Decode must
// return that patch, which re-encodes to plain.
func requireMatchesGob(t *testing.T, name string, plain []byte) {
	t.Helper()
	var want patch.BinaryPatch
	if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&want); err != nil {
		t.Fatalf("%s: gob: %v", name, err)
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(&want); err != nil {
		t.Fatalf("%s: gob: %v", name, err)
	}
	if !bytes.Equal(enc.Bytes(), plain) {
		t.Fatalf("%s: Encode and gob write different bytes:\n got %x\nwant %x", name, plain, enc.Bytes())
	}
	got, err := patch.Decode(plain)
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: Decode and gob differ:\n got %+v\nwant %+v", name, got, &want)
	}
	if !bytes.Equal(patch.Encode(got), plain) {
		t.Fatalf("%s: decoded patch does not re-encode to its input", name)
	}
}

// TestDecodeMatchesGob holds Encode and Decode to gob on real artifacts:
// every Table I patch as the patch server builds it for the four kernel
// configurations of a mixed fleet (4.4 and 3.14, ftrace on and off),
// and a sweep of generated corpus cases, each under its own build
// configuration. Table I splits into conflict-free waves, one server
// tree each, because two of its entries define the same function.
func TestDecodeMatchesGob(t *testing.T) {
	for _, wave := range cvebench.ConflictFreeWaves(cvebench.All()) {
		srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(wave...)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		for _, e := range wave {
			srv.RegisterPatch(e.SourcePatch())
		}
		for _, version := range []string{"4.4", "3.14"} {
			for _, ftrace := range []bool{true, false} {
				info := patchserver.OSInfo{Version: version, Ftrace: ftrace, Inline: true}
				for _, e := range wave {
					plain, err := srv.PatchPlaintext(info, e.CVE)
					if err != nil {
						t.Fatalf("%s %+v: %v", e.CVE, info, err)
					}
					requireMatchesGob(t, fmt.Sprintf("%s %+v", e.CVE, info), plain)
				}
			}
		}
	}

	for _, c := range corpusgen.Generate(corpusgen.Config{Seed: 0xC0DE, Count: 32}) {
		cfg := kernel.BuildConfig{Version: c.Version, Ftrace: c.Ftrace, Inline: c.Inline}
		var pair [2]patch.ImagePair
		for i, src := range []string{c.Vuln, c.Fixed} {
			st, err := kernel.BaseTreeWithConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st.AddFile(c.File, src)
			img, unit, err := st.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", c.ID, err)
			}
			pair[i] = patch.ImagePair{Img: img, Unit: unit}
		}
		bp, err := patch.Build(c.ID, c.Version, pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		requireMatchesGob(t, c.ID, patch.Encode(bp))
	}
}
