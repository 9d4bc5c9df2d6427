//! Event-trace replay (§3.3).
//!
//! "The event logger creates detailed traces of all component-related
//! events during application execution. A colleague has used logs from the
//! event logger to drive detailed application simulations."
//!
//! This module is that downstream consumer: it reconstructs summarized
//! profiles from raw event traces ([`profile_from_events`]), which lets an
//! execution be re-analyzed offline without re-running it.

use crate::logger::{InfoLogger, LogEvent};
use crate::profile::IccProfile;
use parking_lot::Mutex;
use std::sync::Arc;

/// Rebuilds the summarized ICC profile a [`crate::logger::ProfilingLogger`]
/// would have produced from a raw event trace.
pub fn profile_from_events(events: &[LogEvent]) -> IccProfile {
    let mut profile = IccProfile::new();
    for event in events {
        match event {
            LogEvent::InstanceCreated { clsid, class, .. } => {
                profile.record_instance(*class, *clsid);
            }
            LogEvent::InterfaceCreated { .. } => {}
            LogEvent::Call(r) => {
                if r.remotable {
                    profile.record_message(
                        r.caller_class,
                        r.callee_class,
                        r.iid,
                        r.method,
                        r.req_bytes,
                    );
                    profile.record_message(
                        r.callee_class,
                        r.caller_class,
                        r.iid,
                        r.method,
                        r.reply_bytes,
                    );
                } else {
                    profile.record_non_remotable(r.caller_class, r.callee_class);
                }
            }
        }
    }
    profile
}

/// Forwards events to several loggers at once — lets a single profiling run
/// feed both the summarizing profiling logger and the raw event logger.
pub struct TeeLogger {
    sinks: Mutex<Vec<Arc<dyn InfoLogger>>>,
}

impl TeeLogger {
    /// Creates a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn InfoLogger>>) -> Self {
        TeeLogger {
            sinks: Mutex::new(sinks),
        }
    }

    fn each(&self, f: impl Fn(&Arc<dyn InfoLogger>)) {
        for sink in self.sinks.lock().iter() {
            f(sink);
        }
    }
}

impl InfoLogger for TeeLogger {
    fn log_instance_created(
        &self,
        id: coign_com::InstanceId,
        clsid: coign_com::Clsid,
        class: crate::classifier::ClassificationId,
    ) {
        self.each(|s| s.log_instance_created(id, clsid, class));
    }

    fn log_interface_created(&self, owner: coign_com::InstanceId, iid: coign_com::Iid) {
        self.each(|s| s.log_interface_created(owner, iid));
    }

    fn log_call(&self, record: &crate::logger::CallRecord) {
        self.each(|s| s.log_call(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassificationId;
    use crate::logger::{CallRecord, EventLogger, ProfilingLogger};
    use coign_com::{Clsid, Iid, InstanceId};

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    fn record(caller: u32, callee: u32, req: u64, reply: u64, remotable: bool) -> CallRecord {
        CallRecord {
            caller: Some(InstanceId(u64::from(caller))),
            caller_class: c(caller),
            callee: InstanceId(u64::from(callee)),
            callee_class: c(callee),
            iid: Iid::from_name("IX"),
            method: 0,
            req_bytes: req,
            reply_bytes: reply,
            remotable,
        }
    }

    #[test]
    fn reconstructed_profile_matches_online_summary() {
        // Feed the same stream to both loggers through the tee; the
        // offline reconstruction must equal the online summary.
        let profiling = Arc::new(ProfilingLogger::new());
        let events = Arc::new(EventLogger::new());
        let tee = TeeLogger::new(vec![profiling.clone(), events.clone()]);

        tee.log_instance_created(InstanceId(1), Clsid::from_name("A"), c(1));
        tee.log_instance_created(InstanceId(2), Clsid::from_name("B"), c(2));
        for i in 0..40u64 {
            tee.log_call(&record(1, 2, 100 + i, 5000, true));
        }
        tee.log_call(&record(1, 2, 0, 0, false));

        let online = profiling.snapshot_profile();
        let offline = profile_from_events(&events.take_events());
        assert_eq!(offline, online);
    }
}
