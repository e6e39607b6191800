package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse turns a -chaos flag value into rules. The grammar is flag-friendly
// (no spaces needed):
//
//	spec       := clause (';' clause)*
//	clause     := point '=' action [':' arg] ['@' activation]
//	action     := latency | error | http | corrupt | truncate | drip | blackhole
//	arg        := duration (latency, drip) | status code (http)
//	activation := rate | count 'n' — each optionally capped with 'x' maxfires
//
// The default activation is "@1n": fire on every call. Examples:
//
//	serve.predict=latency:150ms@0.5     half the predicts gain 150ms
//	serve.predict=http:500@0.3          30% of predicts answer 500
//	router.forward=error@3n             every 3rd proxied call fails
//	pool.probe=blackhole@1nx2           the next two probes hang
//	serve.predict=drip:20ms;serve.predict=corrupt@0.1
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	return rules, nil
}

func parseClause(clause string) (Rule, error) {
	point, rest, ok := strings.Cut(clause, "=")
	if !ok || point == "" {
		return Rule{}, fmt.Errorf("chaos: clause %q wants point=action", clause)
	}
	r := Rule{Point: strings.TrimSpace(point), Nth: 1}
	body, activation, hasAct := strings.Cut(rest, "@")
	action, arg, hasArg := strings.Cut(body, ":")
	r.Action = Action(strings.TrimSpace(action))
	switch r.Action {
	case ActLatency, ActDrip:
		if !hasArg {
			return Rule{}, fmt.Errorf("chaos: %s in %q wants a duration argument", r.Action, clause)
		}
		d, err := time.ParseDuration(strings.TrimSpace(arg))
		if err != nil {
			return Rule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
		r.Delay = d
	case ActHTTP:
		if !hasArg {
			return Rule{}, fmt.Errorf("chaos: http in %q wants a status-code argument", clause)
		}
		code, err := strconv.Atoi(strings.TrimSpace(arg))
		if err != nil {
			return Rule{}, fmt.Errorf("chaos: clause %q: bad status code: %w", clause, err)
		}
		r.Code = code
	case ActError, ActCorrupt, ActTruncate, ActBlackhole:
		if hasArg {
			return Rule{}, fmt.Errorf("chaos: %s in %q takes no argument", r.Action, clause)
		}
	default:
		return Rule{}, fmt.Errorf("chaos: unknown action %q in %q", action, clause)
	}
	if hasAct {
		if err := parseActivation(strings.TrimSpace(activation), &r); err != nil {
			return Rule{}, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// parseActivation fills a rule's Rate/Nth/MaxFires from the text after '@'.
func parseActivation(s string, r *Rule) error {
	base, cap_, capped := strings.Cut(s, "x")
	if capped {
		n, err := strconv.Atoi(cap_)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad fire cap %q", cap_)
		}
		r.MaxFires = n
	}
	r.Rate, r.Nth = 0, 0
	if nth, ok := strings.CutSuffix(base, "n"); ok {
		n, err := strconv.Atoi(nth)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad nth activation %q", base)
		}
		r.Nth = n
		return nil
	}
	rate, err := strconv.ParseFloat(base, 64)
	if err != nil || rate <= 0 || rate > 1 {
		return fmt.Errorf("bad rate activation %q (want (0,1] or Nn)", base)
	}
	r.Rate = rate
	return nil
}
