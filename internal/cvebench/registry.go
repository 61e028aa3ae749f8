package cvebench

import (
	"fmt"
	"sort"
	"strings"

	"kshot/internal/kernel"
	"kshot/internal/patch"
)

// Entry is one benchmark vulnerability: a vulnerable kernel subsystem,
// its fix, and an exploit probe.
type Entry struct {
	// CVE is the identifier, as listed in Table I.
	CVE string

	// Functions are the affected kernel functions (Table I column 2).
	Functions []string

	// SizeLoC is the total size, in lines of code, of all changed
	// functions post-patch (Table I column 3).
	SizeLoC int

	// Types is the Table I classification.
	Types []patch.Type

	// File is the subsystem source file the entry contributes.
	File string

	// Vuln and Fixed are the pre-/post-patch file contents.
	Vuln  string
	Fixed string

	// Exploit probes a running kernel for the vulnerability.
	Exploit ExploitFunc

	// Summary describes the real-world bug and which archetype models
	// it here.
	Summary string

	// FigureOnly marks the three extra CVEs that appear on the x-axis
	// of Figures 4/5 but not in Table I.
	FigureOnly bool
}

// SourcePatch returns the entry's fix as a source patch for the patch
// server.
func (e *Entry) SourcePatch() kernel.SourcePatch {
	return kernel.SourcePatch{ID: e.CVE, Files: map[string]string{e.File: e.Fixed}}
}

// TypesString renders the classification like Table I ("1,2").
func (e *Entry) TypesString() string {
	parts := make([]string, len(e.Types))
	for i, t := range e.Types {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

// spec is the registry's build recipe for one entry.
type spec struct {
	cve   string
	fns   []string
	size  int
	types string // "1", "2", "3", "1,2", "1,3"
	t1    string // archetype for the Type-1 part: bounds | leak | ref
	desc  string
	fig   bool
}

// table transcribes Table I (plus the three figure-only CVEs at the
// end). Function names are the paper's, with obvious OCR damage in the
// source text repaired (e.g. "scp_chunk_pending" → sctp_chunk_pending).
var table = []spec{
	{cve: "CVE-2014-0196", fns: []string{"n_tty_write"}, size: 86, types: "1", t1: "bounds", desc: "pty layer buffer overflow in n_tty_write; modeled as a missing bounds check clobbering adjacent state"},
	{cve: "CVE-2014-3687", fns: []string{"sctp_chunk_pending", "sctp_assoc_lookup_asconf_ack"}, size: 16, types: "1,2", t1: "leak", desc: "SCTP duplicate-ASCONF chunk handling; direct fix plus an inline lookup helper implicating its callers"},
	{cve: "CVE-2014-3690", fns: []string{"vmx_vcpu_run", "vmcs_host_cr4", "vmx_set_constant_host_state"}, size: 247, types: "3", desc: "KVM host CR4 not restored on VM exit; modeled as a cached-state field added to a shared structure (Type 3)"},
	{cve: "CVE-2014-4157", fns: []string{"current_thread_info"}, size: 5, types: "2", desc: "MIPS ptrace flag leak through inline current_thread_info; fix lands in every inlining call site"},
	{cve: "CVE-2014-5077", fns: []string{"sctp_assoc_update"}, size: 98, types: "1", t1: "bounds", desc: "SCTP association NULL dereference during simultaneous connections; missing-validation archetype"},
	{cve: "CVE-2014-8206", fns: []string{"do_remount"}, size: 34, types: "2", desc: "mount remount flag confusion in do_remount; inline permission validator implicates callers"},
	{cve: "CVE-2014-7842", fns: []string{"handle_emulation_failure"}, size: 16, types: "1", t1: "leak", desc: "KVM emulation-failure path leaks state; information-leak archetype on a crafted request"},
	{cve: "CVE-2014-8133", fns: []string{"set_tls_desc", "regset_tls_set"}, size: 81, types: "1,2", t1: "bounds", desc: "TLS descriptor validation bypass (espfix); bounds check plus an inline setter helper"},
	{cve: "CVE-2015-1333", fns: []string{"__key_link_end"}, size: 21, types: "1", t1: "ref", desc: "keyring link allocation leak in __key_link_end; refcount imbalance on the error path"},
	{cve: "CVE-2015-1421", fns: []string{"sctp_assoc_update"}, size: 96, types: "1", t1: "ref", desc: "SCTP use-after-free on INIT collisions; refcount double-put archetype"},
	{cve: "CVE-2015-5707", fns: []string{"sg_start_req"}, size: 117, types: "1", t1: "bounds", desc: "integer overflow in SCSI generic sg_start_req; out-of-bounds write archetype"},
	{cve: "CVE-2015-7172", fns: []string{"key_gc_unused_keys", "request_key_and_link"}, size: 20, types: "1", t1: "leak", desc: "keyring garbage collection vs request_key race; information-leak archetype"},
	{cve: "CVE-2015-8812", fns: []string{"iwch_l2t_send", "iwch_cxgb3_ofld_send"}, size: 26, types: "1", t1: "bounds", desc: "iw_cxgb3 use-after-free on congested sends; missing bounds check before queueing"},
	{cve: "CVE-2015-8963", fns: []string{"perf_swevent_add", "swevent_hlist_get_cpu", "perf_event_exit_cpu_context"}, size: 72, types: "3", desc: "perf swevent hlist use-after-free on CPU hotplug; cached per-CPU field added (Type 3)"},
	{cve: "CVE-2015-8964", fns: []string{"tty_set_termios_ldisc"}, size: 10, types: "2", desc: "tty line-discipline use-after-free on failed reset; inline state validator implicates callers"},
	{cve: "CVE-2016-2143", fns: []string{"init_new_context", "pgd_alloc", "pgd_free"}, size: 53, types: "2", desc: "s390 fork page-table corruption; inline context initializers fixed at every expansion site"},
	{cve: "CVE-2016-2543", fns: []string{"snd_seq_ioctl_remove_events"}, size: 25, types: "1", t1: "leak", desc: "ALSA sequencer NULL pointer in queue deletion; missing-check information leak archetype"},
	{cve: "CVE-2016-4578", fns: []string{"snd_timer_user_ccallback"}, size: 24, types: "1", t1: "leak", desc: "ALSA timer stack info leak in user ccallback; uninitialized-field leak archetype"},
	{cve: "CVE-2016-4580", fns: []string{"x25_negotiate_facilities"}, size: 67, types: "1", t1: "bounds", desc: "x25 facilities negotiation stack leak; bounds check on negotiated lengths"},
	{cve: "CVE-2016-5195", fns: []string{"follow_page_pte", "faultin_page"}, size: 229, types: "1,3", t1: "bounds", desc: "Dirty COW: racy copy-on-write in follow_page_pte/faultin_page; bounds fix plus retry-state field (Type 3)"},
	{cve: "CVE-2016-5829", fns: []string{"hiddev_ioctl_usage"}, size: 119, types: "1", t1: "bounds", desc: "HID hiddev out-of-bounds write in ioctl usage handling; bounds-check archetype"},
	{cve: "CVE-2016-7914", fns: []string{"assoc_array_insert_into_terminal_node"}, size: 330, types: "1", t1: "bounds", desc: "assoc_array insertion out-of-bounds index; largest patch in the suite (330 LoC)"},
	{cve: "CVE-2016-7916", fns: []string{"environ_read"}, size: 63, types: "1", t1: "leak", desc: "procfs environ_read race reads freed memory; crafted-request information leak"},
	{cve: "CVE-2017-6347", fns: []string{"ip_cmsg_recv_checksum"}, size: 15, types: "2", desc: "ip_cmsg_recv_checksum misreads partial checksums; inline validator implicates callers"},
	{cve: "CVE-2017-8251", fns: []string{"omninet_open"}, size: 9, types: "2", desc: "omninet_open missing port check; smallest Type 2 patch in the suite"},
	{cve: "CVE-2017-16994", fns: []string{"walk_page_range"}, size: 27, types: "1", t1: "ref", desc: "walk_page_range skips hugetlb VMAs leaking mappings; refcount-imbalance archetype"},
	{cve: "CVE-2017-17053", fns: []string{"init_new_context"}, size: 13, types: "2", desc: "x86 LDT init_new_context error path use-after-free (Listing 2 of the paper); inline fix implicating callers"},
	{cve: "CVE-2017-17806", fns: []string{"hmac_create", "crypto_shash_alg_has_setkey"}, size: 91, types: "1,2", t1: "bounds", desc: "HMAC missing SHA-3 setkey check (Listing 1 of the paper); stack overflow plus inline alg-check helper"},
	{cve: "CVE-2017-18270", fns: []string{"install_user_keyring", "join_session_keyring"}, size: 273, types: "1,2", t1: "ref", desc: "keyrings: install_user_keyring race allows cross-user access; refcount fix plus inline join helper"},
	{cve: "CVE-2018-10124", fns: []string{"kill_something_info", "sys_kill"}, size: 51, types: "1,2", t1: "leak", desc: "kill_something_info INT_MIN negation overflow; leak archetype plus inline signal validator"},

	// Figure 4/5 x-axis extras (§VI-C3's whole-system selection).
	{cve: "CVE-2014-3153", fns: []string{"futex_requeue"}, size: 150, types: "1", t1: "bounds", fig: true, desc: "futex_requeue requeues to the same futex (Towelroot); bounds-check archetype (figure set)"},
	{cve: "CVE-2014-4608", fns: []string{"lzo1x_decompress_safe"}, size: 39, types: "1", t1: "bounds", fig: true, desc: "lzo1x_decompress_safe integer overflow; the paper's 156-byte whole-system example (figure set)"},
	{cve: "CVE-2016-0728", fns: []string{"join_session_keyring"}, size: 81, types: "1", t1: "ref", fig: true, desc: "keyring join_session_keyring refcount overflow; double-put archetype (figure set)"},
}

// registry is built once at init from the table and only read after.
var registry = func() map[string]*Entry {
	m := make(map[string]*Entry, len(table))
	for _, s := range table {
		e, err := buildEntry(s)
		if err != nil {
			panic(fmt.Sprintf("cvebench: %s: %v", s.cve, err))
		}
		if err := checkConflicts(m, e); err != nil {
			panic(fmt.Sprintf("cvebench: %s: %v", s.cve, err))
		}
		m[s.cve] = e
	}
	return m
}()

// checkConflicts rejects an entry that cannot coexist with the ones
// already registered. The dangerous case is two entries claiming the
// same source File with different Vuln or Fixed content: a tree
// provider would install one entry's vulnerable file and the other's
// source patch would silently clobber it, so the built patch would no
// longer correspond to either CVE.
func checkConflicts(m map[string]*Entry, e *Entry) error {
	if prev, ok := m[e.CVE]; ok {
		if prev.File == e.File && prev.Vuln == e.Vuln && prev.Fixed == e.Fixed {
			return nil // identical re-registration is a no-op upstream
		}
		return fmt.Errorf("entry %s already registered with different content", e.CVE)
	}
	for _, other := range m {
		if other.File != e.File {
			continue
		}
		if other.Vuln != e.Vuln {
			return fmt.Errorf("entry %s patches file %s already claimed by %s with conflicting vulnerable content",
				e.CVE, e.File, other.CVE)
		}
		if other.Fixed != e.Fixed {
			return fmt.Errorf("entry %s patches file %s already claimed by %s with conflicting fixed content",
				e.CVE, e.File, other.CVE)
		}
	}
	return nil
}

// All returns the 30 Table I entries in table order.
func All() []*Entry {
	out := make([]*Entry, 0, 30)
	for _, s := range table {
		if !s.fig {
			out = append(out, registry[s.cve])
		}
	}
	return out
}

// FigureSix returns the six CVEs of Figures 4 and 5, in the paper's
// x-axis order.
func FigureSix() []*Entry {
	ids := []string{
		"CVE-2014-0196", "CVE-2014-3153", "CVE-2014-4608",
		"CVE-2016-0728", "CVE-2016-5195", "CVE-2017-17806",
	}
	out := make([]*Entry, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// Get returns the entry for a CVE identifier (Table I or registered).
func Get(cve string) (*Entry, bool) {
	e, ok := registry[cve]
	return e, ok
}

// buildEntry instantiates a spec's archetypes.
func buildEntry(s spec) (*Entry, error) {
	e := &Entry{
		CVE:        s.cve,
		Functions:  append([]string(nil), s.fns...),
		SizeLoC:    s.size,
		File:       "cve/" + strings.ToLower(s.cve) + ".asm",
		Summary:    s.desc,
		FigureOnly: s.fig,
	}
	for _, t := range strings.Split(s.types, ",") {
		switch t {
		case "1":
			e.Types = append(e.Types, patch.Type1)
		case "2":
			e.Types = append(e.Types, patch.Type2)
		case "3":
			e.Types = append(e.Types, patch.Type3)
		default:
			return nil, fmt.Errorf("bad type %q", t)
		}
	}

	var vuln, fixed strings.Builder
	var probes []ExploitFunc
	header := fmt.Sprintf("; %s — %s (types %s)\n", s.cve, strings.Join(s.fns, ", "), s.types)
	vuln.WriteString(header)
	fixed.WriteString(header)

	emitT1 := func(fn string, padN int) {
		switch s.t1 {
		case "leak":
			vuln.WriteString(leakFunc(fn, padN, false))
			fixed.WriteString(leakFunc(fn, padN, true))
			probes = append(probes, leakExploit(fn))
		case "ref":
			vuln.WriteString(refcountFunc(fn, padN, false))
			fixed.WriteString(refcountFunc(fn, padN, true))
			probes = append(probes, refcountExploit(fn))
		default: // bounds
			vuln.WriteString(boundsCheckFunc(fn, padN, false))
			fixed.WriteString(boundsCheckFunc(fn, padN, true))
			probes = append(probes, boundsCheckExploit(fn))
		}
	}

	switch s.types {
	case "1":
		padN := splitPad(s.size, 14, len(s.fns))
		for _, fn := range s.fns {
			emitT1(fn, padN)
		}
	case "2":
		padN := splitPad(s.size, 8, len(s.fns))
		for _, fn := range s.fns {
			vuln.WriteString(inlineValidatorFunc(fn, 2, padN, false))
			fixed.WriteString(inlineValidatorFunc(fn, 2, padN, true))
			probes = append(probes, inlineValidatorExploit(fn))
		}
	case "1,2":
		padN := splitPad(s.size, 12, len(s.fns))
		emitT1(s.fns[0], padN)
		for _, fn := range s.fns[1:] {
			vuln.WriteString(inlineValidatorFunc(fn, 1, padN, false))
			fixed.WriteString(inlineValidatorFunc(fn, 1, padN, true))
			probes = append(probes, inlineValidatorExploit(fn))
		}
	case "3":
		base := strings.ToLower(strings.ReplaceAll(s.cve, "-", "_"))
		padN := splitPad(s.size, 10, len(s.fns))
		vuln.WriteString(structExtensionFuncs(base, s.fns, padN, false))
		fixed.WriteString(structExtensionFuncs(base, s.fns, padN, true))
		probes = append(probes, structExtensionExploit(s.fns))
	case "1,3":
		base := strings.ToLower(strings.ReplaceAll(s.cve, "-", "_"))
		padN := splitPad(s.size, 12, len(s.fns))
		emitT1(s.fns[0], padN)
		vuln.WriteString(structExtensionFuncs(base, s.fns[1:], padN, false))
		fixed.WriteString(structExtensionFuncs(base, s.fns[1:], padN, true))
		probes = append(probes, structExtensionExploit(s.fns[1:]))
	default:
		return nil, fmt.Errorf("unsupported type combination %q", s.types)
	}

	e.Vuln = vuln.String()
	e.Fixed = fixed.String()
	e.Exploit = anyVulnerable(probes)
	return e, nil
}

// anyVulnerable combines probes: the kernel is vulnerable while any
// probe still succeeds.
func anyVulnerable(probes []ExploitFunc) ExploitFunc {
	return func(k *kernel.Kernel, vcpu int) (ExploitResult, error) {
		var details []string
		vulnerable := false
		for _, p := range probes {
			r, err := p(k, vcpu)
			if err != nil {
				return ExploitResult{}, err
			}
			if r.Vulnerable {
				vulnerable = true
			}
			details = append(details, r.Detail)
		}
		return ExploitResult{Vulnerable: vulnerable, Detail: strings.Join(details, "; ")}, nil
	}
}

// VulnerableTree builds a kernel source tree of the given version with
// the entry's vulnerable subsystem included.
func VulnerableTree(version string, e *Entry) (*kernel.SourceTree, error) {
	st, err := kernel.BaseTree(version)
	if err != nil {
		return nil, err
	}
	st.AddFile(e.File, e.Vuln)
	return st, nil
}

// TreeProviderFor returns a patchserver.TreeProvider-compatible
// function producing trees that include the vulnerable files of the
// given entries (the distro vendor's full source).
func TreeProviderFor(entries ...*Entry) func(version string) (*kernel.SourceTree, error) {
	sorted := append([]*Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].File < sorted[j].File })
	return func(version string) (*kernel.SourceTree, error) {
		st, err := kernel.BaseTree(version)
		if err != nil {
			return nil, err
		}
		for _, e := range sorted {
			st.AddFile(e.File, e.Vuln)
		}
		return st, nil
	}
}
