package patch_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"kshot/internal/corpusgen"
	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
)

// requireMatchesGob decodes plain with patch.Decode and with gob's own
// decoder, and requires equal results that re-encode to plain.
func requireMatchesGob(t *testing.T, name string, plain []byte) {
	t.Helper()
	got, err := patch.Decode(plain)
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	var want patch.BinaryPatch
	if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&want); err != nil {
		t.Fatalf("%s: gob: %v", name, err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: Decode and gob differ:\n got %+v\nwant %+v", name, got, &want)
	}
	if again, err := patch.Encode(got); err != nil || !bytes.Equal(again, plain) {
		t.Fatalf("%s: decoded patch does not re-encode to its input (err %v)", name, err)
	}
}

// TestDecodeMatchesGob holds Decode to gob's decoder on real artifacts:
// every Table I patch as the patch server builds it for the four kernel
// configurations of a mixed fleet (4.4 and 3.14, ftrace on and off),
// and a sweep of generated corpus cases, each under its own build
// configuration. Table I splits into conflict-free waves, one server
// tree each, because two of its entries define the same function.
func TestDecodeMatchesGob(t *testing.T) {
	sess, err := kcrypto.NewSession(make([]byte, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range cvebench.ConflictFreeWaves(cvebench.All()) {
		srv, err := patchserver.NewServer("127.0.0.1:0", cvebench.TreeProviderFor(wave...))
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
					blob, err := srv.BuildPatchBlob(info, e.CVE, sess)
					if err != nil {
						t.Fatalf("%s %+v: %v", e.CVE, info, err)
					}
					plain, err := sess.Decrypt(blob)
					if err != nil {
						t.Fatal(err)
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
		plain, err := patch.Encode(bp)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesGob(t, c.ID, plain)
	}
}
