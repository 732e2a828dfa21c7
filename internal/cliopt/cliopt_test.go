package cliopt

import (
	"strings"
	"testing"

	"tlc"
)

// TestApply table-tests flag resolution: every field is assigned before one
// tlc.Options.Validate call, so a bad combination fails in Apply, before any
// run starts, with the message the run itself would give.
func TestApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *Flags
		// wantErr is a fragment of the expected error; empty means Apply
		// must succeed.
		wantErr string
		check   func(t *testing.T, opt tlc.Options)
	}{
		{
			// Used to pass Apply (validation ran before the phase fields
			// were set) and then run unsampled.
			name:    "negative phase shape",
			f:       &Flags{Cores: 1, Length: 2000, Phase: true, PhaseWindows: -3, PhaseClusters: -3},
			wantErr: "phase fields cannot be negative",
		},
		{
			name:    "negative phase windows imply -phase",
			f:       &Flags{Cores: 1, Length: 2000, PhaseWindows: -3},
			wantErr: "PhaseWindows=-3",
		},
		{
			name:    "clusters exceed windows",
			f:       &Flags{Cores: 1, Length: 2000, PhaseWindows: 10, PhaseClusters: 14},
			wantErr: "PhaseClusters=14 exceeds PhaseWindows=10",
		},
		{
			name:    "sample with phase",
			f:       &Flags{Cores: 1, Length: 2000, Sample: 10, Phase: true},
			wantErr: "mutually exclusive",
		},
		{
			name:    "zero cores",
			f:       &Flags{Cores: 0, Length: 2000},
			wantErr: "-cores 0",
		},
		{
			name:    "65 cores",
			f:       &Flags{Cores: 65, Length: 2000},
			wantErr: "64-core",
		},
		{
			name:    "unknown sharing pattern",
			f:       &Flags{Cores: 2, Length: 2000, Sharing: "broadcast"},
			wantErr: `unknown sharing pattern "broadcast"`,
		},
		{
			name: "phase defaults",
			f:    &Flags{Cores: 1, Length: 3000, Phase: true},
			check: func(t *testing.T, opt tlc.Options) {
				if opt.PhaseWindows != DefaultPhaseWindows || opt.PhaseClusters != DefaultPhaseClusters {
					t.Errorf("phase shape %d/%d, want defaults %d/%d",
						opt.PhaseWindows, opt.PhaseClusters, DefaultPhaseWindows, DefaultPhaseClusters)
				}
				if opt.SampleLength != 3000 || opt.SampleIntervals != 0 || opt.PhaseProfiles == nil {
					t.Errorf("phase options %+v: want SampleLength 3000, no intervals, a profile store", opt)
				}
			},
		},
		{
			name: "one explicit phase knob",
			f:    &Flags{Cores: 1, Length: 2000, PhaseClusters: 5},
			check: func(t *testing.T, opt tlc.Options) {
				if opt.PhaseWindows != DefaultPhaseWindows || opt.PhaseClusters != 5 {
					t.Errorf("phase shape %d/%d, want %d/5", opt.PhaseWindows, opt.PhaseClusters, DefaultPhaseWindows)
				}
			},
		},
		{
			name: "uniform sampling",
			f:    &Flags{Cores: 4, Length: 1500, Sample: 20, Sharing: "migratory"},
			check: func(t *testing.T, opt tlc.Options) {
				if opt.SampleIntervals != 20 || opt.SampleLength != 1500 || opt.PhaseWindows != 0 {
					t.Errorf("sampling %d×%d (phase windows %d), want 20×1500 and no phase",
						opt.SampleIntervals, opt.SampleLength, opt.PhaseWindows)
				}
				if opt.Cores != 4 || opt.Sharing.Pattern != "migratory" {
					t.Errorf("CMP axis %d cores, %q; want 4, migratory", opt.Cores, opt.Sharing.Pattern)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tlc.DefaultOptions()
			err := tc.f.Apply(&opt)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Apply = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Apply = %v, want nil", err)
			}
			tc.check(t, opt)
		})
	}
}
