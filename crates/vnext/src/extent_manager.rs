//! The Extent Manager: the real vNext component under test.
//!
//! The manager keeps the [`ExtentCenter`] (extent → replica locations) and
//! the [`ExtentNodeMap`] (EN → last heartbeat) up to date from EN messages,
//! and runs two periodic loops:
//!
//! * the **EN expiration loop** removes ENs that have been missing heartbeats
//!   for an extended period and deletes their extent records;
//! * the **extent repair loop** examines all extents, identifies the ones
//!   with missing replicas and sends repair requests to live ENs through the
//!   [`NetworkEngine`].
//!
//! In production both loops are driven by an internal timer; the test harness
//! calls [`ExtentManager::disable_timer`] and drives them from a modeled P#
//! timer instead (the paper's footnote 3).

use crate::extent_center::{ExtentCenter, ExtentNodeMap};
use crate::types::{EnId, EnMessage, ExtMgrMessage, ExtentId};

/// The network interface used by the Extent Manager to talk to ENs
/// (the vNext `NetworkEngine` of Figure 7).
///
/// The production implementation writes to sockets; the test harness
/// overrides it with a modeled engine that relays messages through the
/// systematic-testing runtime. Engines are `Send + Sync` because the manager
/// (and the harness machine that wraps it) is carried inside runtime
/// snapshots, which may be shared across threads.
pub trait NetworkEngine: Send + Sync {
    /// Sends `message` to the EN `target`.
    fn send_message(&mut self, target: EnId, message: ExtMgrMessage);
}

/// A network engine that drops every message; stands in for the production
/// socket-based engine in unit tests of the manager's bookkeeping.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullNetworkEngine;

impl NetworkEngine for NullNetworkEngine {
    fn send_message(&mut self, _target: EnId, _message: ExtMgrMessage) {}
}

/// A network engine that records every outbound message, used by unit tests
/// and by the modeled engine of the harness.
#[derive(Debug, Default)]
pub struct RecordingNetworkEngine {
    sent: Vec<(EnId, ExtMgrMessage)>,
}

impl RecordingNetworkEngine {
    /// Creates an engine with an empty outbox.
    pub fn new() -> Self {
        RecordingNetworkEngine::default()
    }

    /// Removes and returns every message sent since the last drain.
    pub fn drain(&mut self) -> Vec<(EnId, ExtMgrMessage)> {
        std::mem::take(&mut self.sent)
    }

    /// Number of undrained messages.
    pub fn pending(&self) -> usize {
        self.sent.len()
    }
}

impl NetworkEngine for RecordingNetworkEngine {
    fn send_message(&mut self, target: EnId, message: ExtMgrMessage) {
        self.sent.push((target, message));
    }
}

/// A network engine whose outbox is shared between the Extent Manager and
/// the harness machine that wraps it.
///
/// The wrapper keeps one clone and installs the other into the manager; after
/// every call into the real code it drains the outbox and relays the
/// intercepted messages through the systematic-testing runtime. This mirrors
/// the paper's `ModelNetEngine` (Figure 7) without modifying the manager.
#[derive(Debug, Clone, Default)]
pub struct SharedNetworkEngine {
    sent: std::sync::Arc<std::sync::Mutex<Vec<(EnId, ExtMgrMessage)>>>,
}

impl SharedNetworkEngine {
    /// Creates an engine with an empty shared outbox.
    pub fn new() -> Self {
        SharedNetworkEngine::default()
    }

    /// Removes and returns every message sent since the last drain.
    pub fn drain(&self) -> Vec<(EnId, ExtMgrMessage)> {
        std::mem::take(&mut *self.sent.lock().expect("outbox lock"))
    }

    /// Number of undrained messages.
    pub fn pending(&self) -> usize {
        self.sent.lock().expect("outbox lock").len()
    }

    /// Deep-copies the engine: unlike `clone` (which shares the outbox
    /// handle), the fork gets its own outbox holding a copy of the undrained
    /// messages, so snapshot clones never share wire state.
    pub fn fork(&self) -> SharedNetworkEngine {
        SharedNetworkEngine {
            sent: std::sync::Arc::new(std::sync::Mutex::new(
                self.sent.lock().expect("outbox lock").clone(),
            )),
        }
    }
}

impl NetworkEngine for SharedNetworkEngine {
    fn send_message(&mut self, target: EnId, message: ExtMgrMessage) {
        self.sent
            .lock()
            .expect("outbox lock")
            .push((target, message));
    }
}

/// Seeded defects that can be re-introduced into the Extent Manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentManagerBugs {
    /// The §3.6 liveness bug: accept a sync report from an EN that is *not*
    /// in the [`ExtentNodeMap`] (for example because the expiration loop
    /// already removed it). The stale report re-adds the EN's extents to the
    /// [`ExtentCenter`], the replica count looks healthy again, and the
    /// repair loop never schedules the repair — even though the real replica
    /// is gone.
    pub accept_sync_from_expired_en: bool,
}

/// Configuration of an Extent Manager instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentManagerConfig {
    /// Desired number of replicas per extent.
    pub replica_target: usize,
    /// An EN is expired after this many expiration-loop ticks without a
    /// heartbeat.
    pub heartbeat_expiry: u64,
    /// Seeded defects.
    pub bugs: ExtentManagerBugs,
}

impl Default for ExtentManagerConfig {
    fn default() -> Self {
        ExtentManagerConfig {
            replica_target: 3,
            heartbeat_expiry: 2,
            bugs: ExtentManagerBugs::default(),
        }
    }
}

/// The Extent Manager (Figure 6 of the paper).
pub struct ExtentManager {
    config: ExtentManagerConfig,
    extent_center: ExtentCenter,
    extent_node_map: ExtentNodeMap,
    net: Box<dyn NetworkEngine>,
    /// Logical clock advanced by the expiration loop.
    clock: u64,
    /// Whether the production-internal timer is active. The test harness
    /// disables it and drives the loops from a modeled timer.
    internal_timer_enabled: bool,
    repair_requests_sent: usize,
}

impl ExtentManager {
    /// Creates a manager that talks to ENs through `net`.
    pub fn new(config: ExtentManagerConfig, net: Box<dyn NetworkEngine>) -> Self {
        ExtentManager {
            config,
            extent_center: ExtentCenter::new(),
            extent_node_map: ExtentNodeMap::new(),
            net,
            clock: 0,
            internal_timer_enabled: true,
            repair_requests_sent: 0,
        }
    }

    /// Replaces the network engine (the harness swaps in the modeled one).
    pub fn set_network_engine(&mut self, net: Box<dyn NetworkEngine>) {
        self.net = net;
    }

    /// Clones the manager's bookkeeping state, installing `net` as the
    /// clone's network engine (the `Box<dyn NetworkEngine>` itself cannot be
    /// cloned). Used by the snapshot path of the wrapper machine.
    pub fn clone_with_network(&self, net: Box<dyn NetworkEngine>) -> ExtentManager {
        ExtentManager {
            config: self.config,
            extent_center: self.extent_center.clone(),
            extent_node_map: self.extent_node_map.clone(),
            net,
            clock: self.clock,
            internal_timer_enabled: self.internal_timer_enabled,
            repair_requests_sent: self.repair_requests_sent,
        }
    }

    /// Disables the production-internal timer so that the expiration and
    /// repair loops are only driven externally (by the test harness).
    pub fn disable_timer(&mut self) {
        self.internal_timer_enabled = false;
    }

    /// Returns `true` when the internal timer is still enabled.
    pub fn internal_timer_enabled(&self) -> bool {
        self.internal_timer_enabled
    }

    /// Declares that this manager is responsible for `extent` (initial
    /// placement metadata, before any sync report).
    pub fn register_extent(&mut self, extent: ExtentId) {
        self.extent_center.register_extent(extent);
    }

    /// Processes one message from an EN.
    pub fn process_message(&mut self, message: EnMessage) {
        match message {
            EnMessage::Heartbeat { en } => {
                self.extent_node_map.record_heartbeat(en, self.clock);
            }
            EnMessage::SyncReport { en, extents } => {
                let known = self.extent_node_map.contains(en);
                if known || self.config.bugs.accept_sync_from_expired_en {
                    // BUG (when `accept_sync_from_expired_en` is set): a sync
                    // report from an EN that was already expired re-populates
                    // the extent center, masking the lost replicas.
                    self.extent_center.apply_sync_report(en, &extents);
                }
            }
        }
    }

    /// Runs one iteration of the EN expiration loop: advances the logical
    /// clock, removes ENs whose heartbeats are stale and deletes their extent
    /// records. Returns the expired ENs.
    pub fn run_expiration_loop(&mut self) -> Vec<EnId> {
        self.clock += 1;
        let expired = self
            .extent_node_map
            .expire(self.clock, self.config.heartbeat_expiry);
        for &en in &expired {
            self.extent_center.remove_en(en);
        }
        expired
    }

    /// Runs one iteration of the extent repair loop: for every extent with
    /// missing replicas, sends a repair request to a live EN that does not
    /// yet hold it, naming a current replica as the copy source. Returns the
    /// number of repair requests sent.
    pub fn run_repair_loop(&mut self) -> usize {
        let live = self.extent_node_map.live_ens();
        let mut requests: Vec<(EnId, ExtMgrMessage)> = Vec::new();
        for (extent, replicas) in self.extent_center.iter() {
            if replicas.len() >= self.config.replica_target || replicas.is_empty() {
                // Healthy, or unrepairable (no surviving replica to copy from).
                continue;
            }
            let source = *replicas.iter().next().expect("non-empty replica set");
            let missing = self.config.replica_target - replicas.len();
            let targets: Vec<EnId> = live
                .iter()
                .copied()
                .filter(|en| !replicas.contains(en))
                .take(missing)
                .collect();
            for target in targets {
                requests.push((target, ExtMgrMessage::RepairRequest { extent, source }));
            }
        }
        let count = requests.len();
        for (target, message) in requests {
            self.net.send_message(target, message);
        }
        self.repair_requests_sent += count;
        count
    }

    /// The extent → replica locations view (exposed for tests and the
    /// harness).
    pub fn extent_center(&self) -> &ExtentCenter {
        &self.extent_center
    }

    /// The EN liveness view (exposed for tests and the harness).
    pub fn extent_node_map(&self) -> &ExtentNodeMap {
        &self.extent_node_map
    }

    /// Total repair requests sent since creation.
    pub fn repair_requests_sent(&self) -> usize {
        self.repair_requests_sent
    }

    /// The manager's configuration.
    pub fn config(&self) -> &ExtentManagerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A network engine whose outbox is shared with the test.
    #[derive(Clone, Default)]
    struct SharedEngine {
        sent: Arc<Mutex<Vec<(EnId, ExtMgrMessage)>>>,
    }

    impl NetworkEngine for SharedEngine {
        fn send_message(&mut self, target: EnId, message: ExtMgrMessage) {
            self.sent.lock().unwrap().push((target, message));
        }
    }

    fn manager_with_engine(bugs: ExtentManagerBugs) -> (ExtentManager, SharedEngine) {
        let engine = SharedEngine::default();
        let mgr = ExtentManager::new(
            ExtentManagerConfig {
                replica_target: 3,
                heartbeat_expiry: 2,
                bugs,
            },
            Box::new(engine.clone()),
        );
        (mgr, engine)
    }

    fn heartbeat(mgr: &mut ExtentManager, en: u64) {
        mgr.process_message(EnMessage::Heartbeat { en: EnId(en) });
    }

    fn sync(mgr: &mut ExtentManager, en: u64, extents: &[u64]) {
        mgr.process_message(EnMessage::SyncReport {
            en: EnId(en),
            extents: extents.iter().map(|&e| ExtentId(e)).collect(),
        });
    }

    #[test]
    fn heartbeats_register_ens() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        heartbeat(&mut mgr, 1);
        heartbeat(&mut mgr, 2);
        assert_eq!(mgr.extent_node_map().len(), 2);
    }

    #[test]
    fn expiration_removes_silent_ens_and_their_extents() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        heartbeat(&mut mgr, 1);
        sync(&mut mgr, 1, &[10]);
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 1);
        // heartbeat_expiry is 2: after three expiration ticks without a
        // heartbeat the EN is expired.
        assert!(mgr.run_expiration_loop().is_empty());
        assert!(mgr.run_expiration_loop().is_empty());
        assert_eq!(mgr.run_expiration_loop(), vec![EnId(1)]);
        assert_eq!(mgr.extent_node_map().len(), 0);
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 0);
    }

    #[test]
    fn fixed_manager_ignores_sync_from_expired_en() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        heartbeat(&mut mgr, 1);
        sync(&mut mgr, 1, &[10]);
        for _ in 0..3 {
            mgr.run_expiration_loop();
        }
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 0);
        // A stale sync report from the expired EN must not resurrect it.
        sync(&mut mgr, 1, &[10]);
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 0);
    }

    #[test]
    fn buggy_manager_resurrects_expired_replicas() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs {
            accept_sync_from_expired_en: true,
        });
        heartbeat(&mut mgr, 1);
        sync(&mut mgr, 1, &[10]);
        for _ in 0..3 {
            mgr.run_expiration_loop();
        }
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 0);
        sync(&mut mgr, 1, &[10]);
        // The paper's bug: the replica count looks healthy even though the EN
        // is gone, so the repair loop will never repair the extent.
        assert_eq!(mgr.extent_center().replica_count(ExtentId(10)), 1);
    }

    #[test]
    fn repair_loop_targets_live_ens_missing_the_extent() {
        let (mut mgr, engine) = manager_with_engine(ExtentManagerBugs::default());
        for en in 1..=4 {
            heartbeat(&mut mgr, en);
        }
        sync(&mut mgr, 1, &[10]);
        sync(&mut mgr, 2, &[10]);
        // Extent 10 has 2 of 3 replicas: one repair request must go to a live
        // EN that does not hold it (3 or 4).
        let sent = mgr.run_repair_loop();
        assert_eq!(sent, 1);
        let outbox = engine.sent.lock().unwrap();
        let (target, message) = outbox[0];
        assert!(target == EnId(3) || target == EnId(4));
        match message {
            ExtMgrMessage::RepairRequest { extent, source } => {
                assert_eq!(extent, ExtentId(10));
                assert!(source == EnId(1) || source == EnId(2));
            }
        }
    }

    #[test]
    fn repair_loop_skips_healthy_and_unrepairable_extents() {
        let (mut mgr, engine) = manager_with_engine(ExtentManagerBugs::default());
        for en in 1..=3 {
            heartbeat(&mut mgr, en);
        }
        // Healthy extent: three replicas.
        for en in 1..=3 {
            sync(&mut mgr, en, &[20]);
        }
        // Unrepairable extent: registered but zero replicas.
        mgr.register_extent(ExtentId(30));
        assert_eq!(mgr.run_repair_loop(), 0);
        assert!(engine.sent.lock().unwrap().is_empty());
    }

    #[test]
    fn repair_loop_requests_every_missing_replica() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        for en in 1..=4 {
            heartbeat(&mut mgr, en);
        }
        sync(&mut mgr, 1, &[10]);
        // Two replicas missing and three candidate targets: two requests.
        assert_eq!(mgr.run_repair_loop(), 2);
        assert_eq!(mgr.repair_requests_sent(), 2);
    }

    #[test]
    fn disable_timer_flag_is_tracked() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        assert!(mgr.internal_timer_enabled());
        mgr.disable_timer();
        assert!(!mgr.internal_timer_enabled());
    }

    #[test]
    fn recording_engine_drains_messages() {
        let mut engine = RecordingNetworkEngine::new();
        engine.send_message(
            EnId(1),
            ExtMgrMessage::RepairRequest {
                extent: ExtentId(1),
                source: EnId(2),
            },
        );
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.drain().len(), 1);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn shared_engine_outbox_is_visible_through_clones() {
        let handle = SharedNetworkEngine::new();
        let mut mgr = ExtentManager::new(ExtentManagerConfig::default(), Box::new(handle.clone()));
        heartbeat(&mut mgr, 1);
        heartbeat(&mut mgr, 2);
        sync(&mut mgr, 1, &[10]);
        mgr.run_repair_loop();
        assert_eq!(handle.pending(), 1);
        let drained = handle.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(handle.pending(), 0);
    }

    #[test]
    fn heartbeat_after_expiry_re_registers_en() {
        let (mut mgr, _) = manager_with_engine(ExtentManagerBugs::default());
        heartbeat(&mut mgr, 1);
        for _ in 0..3 {
            mgr.run_expiration_loop();
        }
        assert!(!mgr.extent_node_map().contains(EnId(1)));
        heartbeat(&mut mgr, 1);
        assert!(mgr.extent_node_map().contains(EnId(1)));
    }
}
