// Package trader reproduces "Dependability for high-tech systems: an
// industry-as-laboratory approach" (Brinksma & Hooman, DATE 2008): a
// model-based run-time awareness and correction framework for high-volume
// embedded systems, together with every substrate the paper's case studies
// depend on — a TV simulator on a SoC resource model, executable timed state
// machines, spectrum-based diagnosis, mode-consistency checking, partial
// recovery, load-balancing, user-perception modelling, stress testing,
// warning prioritization and architecture-level FMEA.
//
// Beyond the paper's single-device setting, internal/fleet runs thousands
// of monitored devices concurrently on a sharded pool — the fleet scale the
// paper's high-volume premise implies — and ingests remote devices over the
// network: cmd/traderd -listen accepts concurrent SUO connections (Unix
// socket/TCP, JSON or negotiated binary codec) and monitors each as a pool
// device, with cmd/tvsim -connect as the matching fleet client.
// internal/journal makes ingestion crash-durable (write-ahead frame log,
// replayable post mortem), and internal/control closes the awareness loop:
// error reports are classified and escalated per device — tolerate, reset,
// restart as a recoverable unit, quarantine — with every recovery action
// actuated over the wire and journaled (traderd -recover).
// internal/diagnose closes the observation pipeline the same way: devices
// carry spectral flight recorders (per-heartbeat block-coverage windows),
// escalations trigger snapshot pulls from the suspect and a healthy cohort,
// and the fleet-folded program spectrum ranks the faulty code block with an
// FMEA-weighted component verdict, reproducible byte-identically from the
// journal (traderd -diagnose / -replay -diagnose).
// internal/federate scales past one daemon — and carries the paper's E7
// experiment (monitor migration between hosts) to production scale: edge
// daemons own device-ID hash ranges and stream rollup deltas to an
// aggregator serving the exact merged fleet view (traderd -edge /
// -aggregate), devices migrate live between edges via checkpoint handoff,
// and a SIGKILLed edge's devices are adopted from its journal by a
// surviving peer with byte-identical monitor state.
//
// See ARCHITECTURE.md for the concept-to-package map (its experiments row
// indexes E1–E14) and the full wire protocol specification, README.md for
// the layout, and cmd/experiments for the paper-vs-measured tables. The
// benchmarks in bench_test.go regenerate every experiment (E1–E14).
package trader
