//! Workload engines and demand models from the paper's evaluation.
//!
//! Two kinds of model live here, matching how each figure is reproduced:
//!
//! - **Demand streams** — workloads whose interesting behaviour is their
//!   disk I/O pattern are simulated discretely through the real driver →
//!   mediator → controller → disk path: [`fio`], [`ioping`],
//!   [`kernbench`]'s I/O, and the Cassandra commit-log stream in [`db`].
//! - **Throughput models** — workloads whose per-operation rate is far too
//!   high to simulate op-by-op (memcached at 36 KT/s for 20 minutes) are
//!   modeled per sampling window from *measured* machine state (EPT on?
//!   exits taken? VMM CPU share?): [`db`], [`sysbench`], [`mpi`].
//!
//! No model here draws individual keys: the YCSB read/write mixes behind
//! Fig 5 enter [`db`] only through each database's calibrated per-window
//! model.

pub mod db;
pub mod fio;
pub mod ioping;
pub mod kernbench;
pub mod mpi;
pub mod sysbench;
