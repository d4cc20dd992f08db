//! The epoch-numbered configuration service (ZooKeeper stand-in).
//!
//! The paper uses ZooKeeper only to "reach an agreement on the current
//! configuration among surviving machines" (§3); all data-path
//! coordination is RDMA. A linearizable in-process register with epoch
//! numbers is a faithful substitute.

use std::collections::BTreeSet;

use drtm_base::sync::RwLock;
use drtm_rdma::NodeId;

/// One committed cluster configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// Monotonically increasing configuration number (vertical-Paxos
    /// ballot).
    pub epoch: u64,
    /// Machines that are members of this configuration.
    pub members: BTreeSet<NodeId>,
}

impl Configuration {
    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

/// The agreement service: a linearizable current-configuration register.
#[derive(Debug)]
pub struct ConfigService {
    current: RwLock<Configuration>,
}

impl ConfigService {
    /// Creates the service with an initial full membership `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            current: RwLock::new(Configuration {
                epoch: 1,
                members: (0..n).collect(),
            }),
        }
    }

    /// Returns a copy of the current configuration.
    pub fn get(&self) -> Configuration {
        self.current.read().clone()
    }

    /// Runs `read` on the current configuration under the register's
    /// read lock: one membership read, no clone. `read` must not call
    /// back into the service.
    pub fn with<R>(&self, read: impl FnOnce(&Configuration) -> R) -> R {
        read(&self.current.read())
    }

    /// Current epoch without cloning the member set.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// The current epoch if `node` is a member of it, `None` if it is
    /// not: one read of the register, no clone.
    pub fn epoch_of(&self, node: NodeId) -> Option<u64> {
        let cur = self.current.read();
        cur.contains(node).then_some(cur.epoch)
    }

    /// Commits a new configuration that excludes `dead`, returning it.
    ///
    /// Idempotent: if `dead` is already excluded the configuration is
    /// returned unchanged (two survivors may race to report the same
    /// failure).
    pub fn remove_member(&self, dead: NodeId) -> Configuration {
        let mut cur = self.current.write();
        if cur.members.remove(&dead) {
            cur.epoch += 1;
        }
        cur.clone()
    }

    /// Commits a new configuration that re-admits `node` (a recovered or
    /// replacement machine).
    pub fn add_member(&self, node: NodeId) -> Configuration {
        let mut cur = self.current.write();
        if cur.members.insert(node) {
            cur.epoch += 1;
        }
        cur.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_membership() {
        let s = ConfigService::new(3);
        let c = s.get();
        assert_eq!(c.epoch, 1);
        assert!(c.contains(0) && c.contains(1) && c.contains(2));
        assert!(!c.contains(3));
    }

    #[test]
    fn with_reads_the_current_configuration() {
        let s = ConfigService::new(3);
        s.remove_member(1);
        assert_eq!(
            s.with(|c| (c.epoch, c.contains(1), c.contains(2))),
            (2, false, true)
        );
    }

    #[test]
    fn remove_bumps_epoch_once() {
        let s = ConfigService::new(3);
        let c1 = s.remove_member(1);
        assert_eq!(c1.epoch, 2);
        assert!(!c1.contains(1));
        let c2 = s.remove_member(1);
        assert_eq!(c2.epoch, 2, "idempotent");
    }

    #[test]
    fn add_back_bumps_epoch() {
        let s = ConfigService::new(2);
        s.remove_member(0);
        let c = s.add_member(0);
        assert_eq!(c.epoch, 3);
        assert!(c.contains(0));
    }

    #[test]
    fn concurrent_removals_serialise() {
        use std::sync::Arc;
        let s = Arc::new(ConfigService::new(8));
        let mut handles = Vec::new();
        for dead in 1..5 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || s.remove_member(dead)));
        }
        for h in handles {
            h.join().unwrap();
        }
        let c = s.get();
        assert_eq!(c.epoch, 5, "four distinct removals, four epoch bumps");
        assert_eq!(c.members.len(), 4);
    }
}
