package lsample

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/learn"
)

// Methods lists the estimation method names WithMethod accepts, in the
// paper's order: sampling baselines, learned methods, quantification
// baselines, and the exact oracle.
func Methods() []string {
	return []string{"srs", "ssp", "ssn", "lws", "lss", "qlcc", "qlac", "oracle"}
}

// Classifiers lists the classifier names WithClassifier accepts.
func Classifiers() []string { return []string{"rf", "knn", "nn", "random"} }

// buildClassifier constructs the configured classifier factory.
func (c config) buildClassifier() (core.NewClassifierFunc, error) {
	switch c.classifier {
	case "", "rf":
		return core.ForestClassifier(c.parallelism), nil
	case "knn":
		return func(uint64) learn.Classifier { return learn.NewKNN(5) }, nil
	case "nn":
		return func(seed uint64) learn.Classifier { return learn.NewMLP(seed) }, nil
	case "random":
		return func(seed uint64) learn.Classifier { return learn.NewDummy(seed) }, nil
	}
	return nil, badf("unknown classifier %q (want one of %v)", c.classifier, Classifiers())
}

// buildMethod constructs the configured estimation method. This is the one
// place the knob names map onto internal/core types.
func (c config) buildMethod() (core.Method, error) {
	newClf, err := c.buildClassifier()
	if err != nil {
		return nil, err
	}
	switch c.method {
	case "srs":
		return &core.SRS{Wilson: c.interval == Wilson}, nil
	case "ssp":
		return &core.SSP{Strata: c.strata}, nil
	case "ssn":
		return &core.SSN{Strata: c.strata}, nil
	case "lws":
		return &core.LWS{NewClassifier: newClf}, nil
	case "lss":
		return &core.LSS{NewClassifier: newClf, Strata: c.strata}, nil
	case "qlcc":
		return &core.QLCC{NewClassifier: newClf}, nil
	case "qlac":
		return &core.QLAC{NewClassifier: newClf}, nil
	case "oracle":
		return core.Oracle{}, nil
	}
	return nil, badf("unknown method %q (want one of %v)", c.method, Methods())
}

// GroupMethods lists the estimation methods ExecuteGroups accepts: the
// shared-sample grouped adaptations of plain random sampling and learned
// stratified sampling, plus the exact oracle.
func GroupMethods() []string { return []string{"srs", "lss", "oracle"} }

// buildGroupedMethod constructs the configured shared-sample grouped
// estimator. Grouped estimation adapts a subset of the paper's methods —
// the ones whose sampling plan can be shared across groups.
func (c config) buildGroupedMethod() (core.GroupedMethod, error) {
	switch c.method {
	case "srs":
		return &core.GroupedSRS{Wilson: c.interval == Wilson}, nil
	case "lss":
		newClf, err := c.buildClassifier()
		if err != nil {
			return nil, err
		}
		return &core.GroupedLSS{NewClassifier: newClf, Strata: c.strata, Wilson: c.interval == Wilson}, nil
	case "oracle":
		return core.GroupedOracle{}, nil
	}
	return nil, badf("method %q does not support GROUP BY estimation (want one of %v)", c.method, GroupMethods())
}

// needsFeatures reports whether a method reads per-object features:
// everything except plain random sampling and the exact oracle.
func needsFeatures(method string) bool {
	return method != "srs" && method != "oracle"
}

// budgetFor converts the budget fraction into an evaluation count: at least
// 10, at most |O|.
func (c config) budgetFor(n int) int {
	return EvalBudget(c.budget, n)
}

// EvalBudget converts a budget fraction into an evaluation count for a
// population of n objects: round(frac·n), at least 10, at most n. A
// non-positive fraction selects the default 0.02. This is the rule every
// execution path applies, exported so out-of-process coordinators can
// resolve the global budget from the merged population size exactly as an
// in-process run would.
func EvalBudget(frac float64, n int) int {
	if frac <= 0 {
		frac = 0.02
	}
	b := int(math.Round(frac * float64(n)))
	if b < 10 {
		b = 10
	}
	if b > n {
		b = n
	}
	return b
}

// convertParams turns caller parameter values into engine values plus their
// canonical string form for fingerprinting. JSON numbers arrive as float64,
// or as a json.Number from a decoder that kept them exact; a json.Number
// that parses as an int64 binds as that integer, exactly, and anything else
// as its float64. Whole floats below 1e15 bind as integers, so "k": 25 from
// JSON and int 25 from Go agree.
func convertParams(in map[string]any) (map[string]engine.Value, map[string]string, error) {
	vals := make(map[string]engine.Value, len(in))
	strs := make(map[string]string, len(in))
	for name, raw := range in {
		if n, ok := raw.(json.Number); ok {
			if i, err := n.Int64(); err == nil {
				raw = i
			} else if raw, err = n.Float64(); err != nil {
				return nil, nil, badf("parameter %q: %v", name, err)
			}
		}
		switch v := raw.(type) {
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				vals[name] = engine.IntVal(int64(v))
				strs[name] = strconv.FormatInt(int64(v), 10)
			} else {
				vals[name] = engine.FloatVal(v)
				strs[name] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		case int:
			vals[name] = engine.IntVal(int64(v))
			strs[name] = strconv.Itoa(v)
		case int64:
			vals[name] = engine.IntVal(v)
			strs[name] = strconv.FormatInt(v, 10)
		case string:
			vals[name] = engine.StringVal(v)
			strs[name] = "'" + v + "'"
		case bool:
			return nil, nil, badf("parameter %q: booleans are not supported", name)
		default:
			return nil, nil, badf("parameter %q has unsupported type %T", name, raw)
		}
	}
	return vals, strs, nil
}
