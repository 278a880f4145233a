//! Mode-local scheduling and communication mapping for multi-mode
//! co-synthesis.
//!
//! This crate is the constructive inner loop of the DATE 2003 flow: given
//! a [`SystemMapping`] (task → PE, per mode) and a [`CoreAllocation`]
//! (hardware core instances per mode), it derives
//!
//! * an ASAP/ALAP [`TimingAnalysis`] with task mobilities,
//! * a static [`Schedule`] per mode via mobility-driven list scheduling
//!   ([`schedule_mode`]), routing each inter-PE transfer over the best
//!   connecting link (the communication mapping `Mγ^O`).
//!
//! # Examples
//!
//! ```
//! use momsynth_model::ids::{ModeId, PeId};
//! use momsynth_sched::{
//!     schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping,
//! };
//! # use momsynth_model::{ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind,
//! #     System, TaskGraphBuilder, TechLibraryBuilder};
//! # use momsynth_model::units::{Seconds, Watts};
//! # fn build_system() -> System {
//! #     let mut tech = TechLibraryBuilder::new();
//! #     let tx = tech.add_type("X");
//! #     let mut arch = ArchitectureBuilder::new();
//! #     let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
//! #     tech.set_impl(tx, cpu,
//! #         Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(1.0)));
//! #     let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(10.0));
//! #     g.add_task("t", tx);
//! #     let mut omsm = OmsmBuilder::new();
//! #     omsm.add_mode("m", 1.0, g.build().unwrap());
//! #     System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
//! # }
//!
//! # fn main() -> Result<(), momsynth_sched::SchedError> {
//! let system = build_system();
//! let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
//! let alloc = CoreAllocation::minimal(&system, &mapping);
//! let schedule = schedule_mode(
//!     &system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())?;
//! assert!(schedule.is_timing_feasible(system.omsm().mode(ModeId::new(0)).graph()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod list;
pub mod mapping;
pub mod mobility;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod validate;

pub use error::SchedError;
pub use list::{
    schedule_mode, schedule_mode_with, schedule_mode_with_analysis, ListScratch, Priority,
    SchedulerOptions,
};
pub use mapping::{CoreAllocation, SystemMapping};
pub use mobility::TimingAnalysis;
pub use schedule::{ActivityId, ResourceKey, Schedule, ScheduledComm, ScheduledTask};
pub use stats::{schedule_stats, ResourceStats, ScheduleStats};
pub use trace::schedule_to_vcd;
pub use validate::{validate_schedule, ScheduleViolation};
