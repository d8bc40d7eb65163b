//! # rainbow-control
//!
//! The control plane of the Rainbow reproduction — the programmatic
//! replacement for the paper's GUI applet and servlet middle tier.
//!
//! In the original system the user drives Rainbow through a Java applet
//! that talks to servlets (NSRunnerlet, SiteRunnerlet, NSlet, Sitelet,
//! WLGlet, PMlet); those servlets start the name server and the sites and
//! route workload-generator and progress-monitor requests to them. None of
//! that applet/servlet machinery is meaningful for a Rust library, but its
//! *verbs* are, and they are preserved one-to-one:
//!
//! | GUI / middle-tier action (paper) | This crate |
//! |---|---|
//! | configure a network simulation | [`Session::configure_network`] |
//! | configure Rainbow sites | [`Session::configure_sites`] |
//! | configure transaction processing protocols | [`Session::configure_protocols`] |
//! | configure database items & replication scheme | [`Session::declare_item`], [`Session::configure_uniform_database`] |
//! | save / reuse configuration data | [`config::SessionConfig`] + [`Session::save_config`] / [`Session::load_config`] |
//! | NSRunnerlet / SiteRunnerlet start core components | [`Session::start`] (builds the [`rainbow_core::Cluster`]) |
//! | manual workload generation panel | [`Session::submit_manual`] (+ [`rainbow_wlg::ManualWorkloadBuilder`]) |
//! | simulated workload generation panel (WLGlet) | [`Session::run_generated`] |
//! | inject network and site failures and recoveries | [`Session::crash_site`], [`Session::recover_site`], [`Session::partition`], [`Session::heal_partition`] |
//! | progress monitor / Tx processing statistics (PMlet) | [`Session::statistics`], [`report::render_stats_panel`] |
//!
//! Beyond the paper's GUI verbs, the [`nemesis`] module industrialises the
//! failure-injection panel into a seeded, replayable chaos harness judged
//! by the `rainbow-check` serializability checker.
//!
//! [`Session`]: session::Session
//! [`Session::configure_network`]: session::Session::configure_network
//! [`Session::configure_sites`]: session::Session::configure_sites
//! [`Session::configure_protocols`]: session::Session::configure_protocols
//! [`Session::declare_item`]: session::Session::declare_item
//! [`Session::configure_uniform_database`]: session::Session::configure_uniform_database
//! [`Session::save_config`]: session::Session::save_config
//! [`Session::load_config`]: session::Session::load_config
//! [`Session::start`]: session::Session::start
//! [`Session::submit_manual`]: session::Session::submit_manual
//! [`Session::run_generated`]: session::Session::run_generated
//! [`Session::crash_site`]: session::Session::crash_site
//! [`Session::recover_site`]: session::Session::recover_site
//! [`Session::partition`]: session::Session::partition
//! [`Session::heal_partition`]: session::Session::heal_partition
//! [`Session::statistics`]: session::Session::statistics

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod nemesis;
pub mod report;
pub mod runners;
pub mod session;

pub use config::SessionConfig;
pub use nemesis::{
    format_schedule, generate_schedule, run_nemesis, NemesisConfig, NemesisEvent, NemesisReport,
    ScheduledEvent,
};
pub use report::{render_stats_panel, sweep_table, sweep_to_json, ExperimentTable};
pub use runners::{
    run_protocol_sweep, FaultScenario, LatencySummary, ProgressRunner, SweepCell, SweepConfig,
    SweepReport, WorkloadRunner,
};
pub use session::{run_interactive_script, Session, WorkloadReport};
