package evalharness

import "testing"

func TestRunRolloutBench(t *testing.T) {
	if testing.Short() {
		t.Skip("full rollout bench skipped in -short mode")
	}
	res, err := RunRolloutBench(4, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 4 || res.Domains != 2 || res.CVEs != 1 {
		t.Errorf("inputs not echoed: %+v", res)
	}
	if res.Patched != 4 || res.Failed != 0 || res.RolledBk != 0 {
		t.Errorf("healthy fleet accounting wrong: %+v", res)
	}
	if res.Waves < 2 {
		t.Errorf("want at least canary + one wave, got %d", res.Waves)
	}
	if res.Wall <= 0 || res.TargetsPerSec <= 0 {
		t.Errorf("throughput not measured: wall=%v tps=%f", res.Wall, res.TargetsPerSec)
	}
	if res.MeanPause <= 0 || res.P99Pause < res.MeanPause {
		t.Errorf("pause stats inconsistent: mean=%v p99=%v", res.MeanPause, res.P99Pause)
	}
	// One template boot serves the whole fleet; every target is a fork.
	if res.TemplateMisses != 1 || res.TemplateForks != int64(res.Targets) {
		t.Errorf("template traffic: misses=%d forks=%d, want 1 and %d",
			res.TemplateMisses, res.TemplateForks, res.Targets)
	}
	if res.ProvisionMean <= 0 || res.ProvisionPerSec <= 0 {
		t.Errorf("provision rate not measured: %+v", res)
	}
}
