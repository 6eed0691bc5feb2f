package koala

// This file is the AspectKoala analogue ([19] in the paper): advice woven
// onto inter-component call join points, so observation requires no change
// to component code.

// Advice hooks one join point.
type Advice struct {
	// Name identifies the aspect (for removal and diagnostics).
	Name string
	// Before runs before the method with the outgoing call.
	Before func(Call)
	// After runs after the method with the call and its result.
	After func(Call, Args)
	// Around, when non-nil, wraps the invocation: it receives the call and
	// a proceed function and must return the result (it may skip proceed to
	// stub the callee, or alter args/results — used for fault injection).
	Around func(Call, func(Args) Args) Args
}

// Pointcut selects join points. Empty fields match anything.
type Pointcut struct {
	Caller    string
	Callee    string
	Interface string
	Method    string
}

// Matches reports whether the call is selected.
func (p Pointcut) Matches(c Call) bool {
	return (p.Caller == "" || p.Caller == c.Caller) &&
		(p.Callee == "" || p.Callee == c.Callee) &&
		(p.Interface == "" || p.Interface == c.Interface) &&
		(p.Method == "" || p.Method == c.Method)
}

type aspect struct {
	pc     Pointcut
	advice Advice
	id     int
}

// Weaver holds woven aspects and dispatches calls through them.
type Weaver struct {
	aspects []aspect
	nextID  int
	// Invocations counts calls routed through the weaver.
	Invocations uint64
}

// NewWeaver returns an empty weaver.
func NewWeaver() *Weaver { return &Weaver{} }

// Weave registers advice at a pointcut. Aspects apply in weave order:
// earlier aspects are outermost.
func (w *Weaver) Weave(pc Pointcut, adv Advice) {
	w.aspects = append(w.aspects, aspect{pc: pc, advice: adv, id: w.nextID})
	w.nextID++
}

// invoke routes a call through matching advice down to the target method.
func (w *Weaver) invoke(call Call, target Method) Args {
	w.Invocations++
	var matched []aspect
	for _, a := range w.aspects {
		if a.pc.Matches(call) {
			matched = append(matched, a)
		}
	}
	var run func(i int, args Args) Args
	run = func(i int, args Args) Args {
		if i == len(matched) {
			return target(args)
		}
		a := matched[i]
		c := call
		c.Args = args
		if a.advice.Before != nil {
			a.advice.Before(c)
		}
		var result Args
		if a.advice.Around != nil {
			result = a.advice.Around(c, func(inner Args) Args {
				return run(i+1, inner)
			})
		} else {
			result = run(i+1, args)
		}
		if a.advice.After != nil {
			a.advice.After(c, result)
		}
		return result
	}
	return run(0, call.Args)
}
