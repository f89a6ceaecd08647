//! # bench — the experiment harness
//!
//! One function per paper artefact (see `EXPERIMENTS.md`):
//!
//! | id | paper artefact | function |
//! |----|----------------|----------|
//! | F1/F2 | Figures 1–2, EC vs MC structure | [`experiments::fig1_fig2`] |
//! | T1 | Table 1, MC applications | [`experiments::table1`] |
//! | T2 | Table 2, mobile stations | [`experiments::table2`] |
//! | T3 | Table 3, WAP vs i-mode | [`experiments::table3`] |
//! | T4 | Table 4, WLAN standards | [`experiments::table4`] |
//! | T5 | Table 5, cellular networks | [`experiments::table5`] |
//! | F3 | fleet engine scale (users × threads) | [`experiments::fleet_scale`] |
//! | F4 | event-engine throughput, wheel vs heap | [`engine::run`] |
//! | F5 | observability overhead, recorder on/off | [`obs_experiment::run`] |
//! | F6 | fault injection: availability under storms | [`faults_experiment::run`] |
//! | F7 | caching hierarchy: cold vs warm, zero-TTL identity | [`cache_experiment::run`] |
//! | F8 | shared-world contention: knee + shared-cache growth | [`contention_experiment::run`] |
//! | F9 | fleet scale: populations × threads, wall/tps/RSS | [`scale_experiment::run`] |
//! | F10 | fleet telemetry: cost when off, identity when on | [`telemetry_experiment::run`] |
//! | F11 | durable storage: group commit × fsync cost, recovery pricing | [`db_experiment::run`] |
//! | X1 | §5.2, TCP variants on wireless | `tcpx::tcp_variants` |
//! | X2 | §1.1, five system requirements | [`experiments::independence`] |
//!
//! `cargo run -p bench --bin report` prints every table; the Criterion
//! benches under `benches/` time the same functions. `--trace`
//! additionally exports the fixed-seed fleet trace as JSONL and Chrome
//! `trace_event` JSON (load the latter in Perfetto); `--f8 --dash`
//! prints the resource dashboard and exports Perfetto counter tracks.
//! Each experiment's numbers implement [`gate::Numbers`]: `report`
//! writes the artefact, re-parses it with `obs::json`, prints every
//! [`gate::Gate`] with its measured value and bound, and exits non-zero
//! when one fails.
//! `cargo run -p bench --bin benchdiff` diffs `BENCH_*.json` artefact
//! sets against the committed baselines in `bench/baselines/` — see
//! [`benchdiff`] for the per-metric gating policy.

pub mod ablations;
pub mod benchdiff;
pub mod cache_experiment;
pub mod contention_experiment;
pub mod db_experiment;
pub mod engine;
pub mod experiments;
pub mod faults_experiment;
pub mod gate;
pub mod obs_experiment;
pub mod scale_experiment;
pub mod search_experiment;
pub mod tcpx;
pub mod telemetry_experiment;
