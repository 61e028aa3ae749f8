// Quickstart: live-patch one kernel CVE end to end.
//
// The example boots a simulated target machine running a kernel
// vulnerable to CVE-2016-5195 (Dirty COW in the benchmark registry),
// starts a local patch server, and walks the paper's Figure 2
// pipeline: fetch the encrypted binary patch, preprocess it in the
// SGX enclave, stage it through the reserved memory, and apply it in
// SMM while the OS is briefly paused. The exploit probe demonstrates
// the fix.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"kshot"
)

func main() {
	entry, ok := kshot.LookupCVE("CVE-2016-5195")
	if !ok {
		log.Fatal("benchmark registry missing CVE-2016-5195")
	}

	// The remote patch server: the trusted vendor machine holding full
	// kernel source (including the vulnerable subsystem) and the fix.
	srv, err := kshot.NewPatchServer(kshot.WithTreeProvider(kshot.TreeProviderFor(entry)))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	// The target machine: boots the vulnerable kernel and locks SMRAM.
	// It loads the preparation enclave and attests to the server at the
	// first patch.
	fmt.Println("booting target machine (kernel 4.4, vulnerable to", entry.CVE+")...")
	sys, err := kshot.New(
		kshot.WithVersion("4.4"),
		kshot.WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
		kshot.WithServerAddr(srv.Addr()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Prove the kernel is exploitable.
	res, err := entry.Exploit(sys.Kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: vulnerable=%v — %s\n", res.Vulnerable, res.Detail)

	// Live patch. The OS pauses only for the SMM stage.
	rep, err := sys.Apply(context.Background(), entry.CVE)
	if err != nil {
		log.Fatal(err)
	}
	st := rep.Stages
	fmt.Printf("patched %s: payload %dB\n", rep.ID, st.PayloadBytes)
	fmt.Printf("  SGX (OS running): fetch %v, preprocess %v, pass %v\n", st.Fetch, st.Preprocess, st.Pass)
	fmt.Printf("  SMM (OS paused):  %v total — switch %v, keygen %v, decrypt %v, verify %v, apply %v\n",
		st.SMMTotal(), st.Switch, st.KeyGen, st.Decrypt, st.Verify, st.Apply)

	// Prove the exploit is gone.
	res, err = entry.Exploit(sys.Kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after:  vulnerable=%v — %s\n", res.Vulnerable, res.Detail)
}
