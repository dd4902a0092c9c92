package experiments

import "dasesim/internal/simcache"

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string
	// Run returns the data cmd/experiments -json records under Name and the
	// finished table.
	Run func(*Session) (data any, tab *Table, err error)
}

// Session is one invocation's state: the parameters, the one store of
// static, epoch and alone runs every experiment reads, and the Fig. 5 and
// Fig. 6 results Fig. 7 reuses when the same session has run them.
type Session struct {
	p          Params
	store      *simcache.Memory
	fig5, fig6 *AccuracyResult
}

// NewSession starts an invocation on p that keeps its runs in store.
func NewSession(p Params, store *simcache.Memory) *Session {
	return &Session{p: p, store: store}
}

// entry adapts an experiment's typed data to List's form.
func entry[T any](data T, tab *Table, err error) (any, *Table, error) { return data, tab, err }

// List is every experiment in print order, the order of -run all and -list.
var List = []Experiment{
	{"tableII", func(s *Session) (any, *Table, error) {
		tab := TableII(s.p)
		return tab, tab, nil
	}},
	{"tableIII", func(s *Session) (any, *Table, error) { return entry(TableIII(s.p, s.store)) }},
	{"tableI", func(s *Session) (any, *Table, error) {
		tab := TableI(s.p, 4)
		return tab, tab, nil
	}},
	{"fig2a", func(s *Session) (any, *Table, error) { return entry(Fig2a(s.p, s.store)) }},
	{"fig2b", func(s *Session) (any, *Table, error) { return entry(Fig2b(s.p, s.store)) }},
	{"fig3", func(s *Session) (any, *Table, error) {
		rows, corr, tab, err := Fig3(s.p, s.store)
		return map[string]any{"rows": rows, "correlation": corr}, tab, err
	}},
	{"fig4", func(s *Session) (any, *Table, error) { return entry(Fig4(s.p, s.store)) }},
	{"fig5", func(s *Session) (any, *Table, error) {
		var tab *Table
		var err error
		s.fig5, tab, err = Fig5(s.p, s.store)
		return meanError(s.fig5), tab, err
	}},
	{"fig6", func(s *Session) (any, *Table, error) {
		var tab *Table
		var err error
		s.fig6, tab, err = Fig6(s.p, s.store)
		return meanError(s.fig6), tab, err
	}},
	{"fig7", func(s *Session) (any, *Table, error) {
		var err error
		if s.fig5 == nil {
			if s.fig5, _, err = Fig5(s.p, s.store); err != nil {
				return nil, nil, err
			}
		}
		if s.fig6 == nil {
			if s.fig6, _, err = Fig6(s.p, s.store); err != nil {
				return nil, nil, err
			}
		}
		res, tab := Fig7(s.fig5, s.fig6)
		return res, tab, nil
	}},
	{"fig8a", func(s *Session) (any, *Table, error) { return entry(Fig8a(s.p, s.store)) }},
	{"fig8b", func(s *Session) (any, *Table, error) { return entry(Fig8b(s.p, s.store)) }},
	{"fig9", func(s *Session) (any, *Table, error) { return entry(Fig9(s.p, s.store)) }},
	{"extA", func(s *Session) (any, *Table, error) { return entry(ExtSchedulers(s.p, s.store)) }},
	{"extB", func(s *Session) (any, *Table, error) {
		res, tab, err := ExtEstimators(s.p, s.store)
		return meanError(res), tab, err
	}},
	{"extC", func(s *Session) (any, *Table, error) { return entry(ExtIntervalSensitivity(s.p, s.store)) }},
	{"extD", func(s *Session) (any, *Table, error) { return entry(ExtRequestMaxFactor(s.p, s.store)) }},
	{"extE", func(s *Session) (any, *Table, error) { return entry(ExtLargeGPU(s.p, s.store)) }},
	{"extF", func(s *Session) (any, *Table, error) { return entry(ExtQuadFairness(s.p, s.store, 10)) }},
	{"extG", func(s *Session) (any, *Table, error) { return entry(ExtTemporal(s.p, s.store)) }},
	{"ablation", func(s *Session) (any, *Table, error) { return entry(Ablation(s.p, s.store)) }},
}

// meanError is what -json records of an accuracy study: each estimator's
// mean error, or nothing when the study failed.
func meanError(r *AccuracyResult) any {
	if r == nil {
		return nil
	}
	return r.MeanError
}
