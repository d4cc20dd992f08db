//! Recorded histories of committed DrTM+R transactions, and the one
//! check over them: strict serializability, decided on a direct
//! serialization graph (DESIGN.md §17).
//!
//! A caller installs a [`History`] on a cluster before a run
//! ([`DrtmCluster::record_history`]). From then on every committed
//! DrTM+R transaction, read-only ones included, appends one [`Txn`]:
//! the version of every record it read and installed, and its begin
//! and end on one process-wide stamp counter. Recording charges no
//! virtual time and draws no random number, so a recorded run measures
//! what an unrecorded one does.
//!
//! [`check`] builds the graph offline. A transaction is a node; a
//! version read or installed joins the transactions around it:
//! - **ww**: consecutive installs of one record incarnation, in
//!   sequence-number order;
//! - **wr**: from a version's installer to each of its readers;
//! - **rw**: from a reader to the installer of the next version;
//! - **rt**: from a transaction whose commit returned before another
//!   began to that other. These pass through a chain of stamp nodes,
//!   one per end stamp in order, so the graph stays linear in the
//!   history's size.
//!
//! An odd sequence number (a replicated local write before its R.2
//! makeup) and the even one the makeup writes name one install, as
//! read validation treats them. A version no recorded transaction
//! installed is the loaded one, written by a virtual initial
//! transaction ahead of all others. The history is strictly
//! serializable when the graph is acyclic.
//!
//! Not checked: phantoms. A key a `scan_local` or `last_local` did not
//! find, and a read that came back `NotFound`, leave nothing in the
//! history, and the order of one key's incarnations (a delete, then an
//! insert of the same key) joins nothing.
//!
//! [`DrtmCluster::record_history`]: crate::DrtmCluster::record_history

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use drtm_base::sync::Mutex;
use drtm_rdma::NodeId;
use drtm_store::TableId;

use crate::txn::TxnCtx;

/// The stamp counter every recorded begin and end draws from.
static STAMPS: AtomicU64 = AtomicU64::new(0);

/// The next stamp: later than every stamp drawn before it in host
/// order, by any thread. On the one drive loop host order is
/// virtual-time order; under real threads it is the only real-time
/// order the workers share, since their virtual clocks are not
/// comparable.
pub(crate) fn stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::SeqCst) + 1
}

/// One version of one record: which record, and at which incarnation
/// and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// The machine the record lives on.
    pub node: NodeId,
    /// Its table.
    pub table: TableId,
    /// Its key.
    pub key: u64,
    /// Its block's offset in the machine's region. With the
    /// incarnation it names one lifetime of the record: a block is
    /// reused only at a higher incarnation.
    pub rec_off: usize,
    /// The incarnation: new at every insert, ended by a delete.
    pub incarnation: u64,
    /// The sequence number, or [`Version::ENDED`] for a delete.
    pub seq: u64,
}

impl Version {
    /// The sequence number of a delete: the last install of its
    /// incarnation.
    pub const ENDED: u64 = u64::MAX;

    /// The lifetime of the record this version belongs to.
    fn object(&self) -> (NodeId, usize, u64) {
        (self.node, self.rec_off, self.incarnation)
    }

    /// The install this version names: an odd sequence number is its
    /// makeup's even successor.
    fn install(&self) -> u64 {
        if self.seq == Self::ENDED {
            self.seq
        } else {
            (self.seq + 1) & !1
        }
    }
}

/// One committed transaction of a history.
#[derive(Debug, Clone, Default)]
pub struct Txn {
    /// The machine it ran on.
    pub node: NodeId,
    /// The worker that ran it (`Worker::id`).
    pub worker: u64,
    /// Its begin stamp, drawn as its committed attempt began.
    pub begin: u64,
    /// Its end stamp, drawn as its commit returned.
    pub end: u64,
    /// Its worker's virtual clock at begin, ns.
    pub vbegin_ns: u64,
    /// Its worker's virtual clock at the commit's return, ns.
    pub vend_ns: u64,
    /// Every version it read.
    pub reads: Vec<Version>,
    /// Every version it installed: writes, inserts (a new incarnation
    /// at sequence number 2) and deletes ([`Version::ENDED`]).
    pub writes: Vec<Version>,
}

/// The committed transactions of a run, in the order their commits
/// returned.
#[derive(Debug, Default)]
pub struct History {
    pub(crate) txns: Mutex<Vec<Txn>>,
}

impl History {
    /// Appends one committed transaction.
    pub(crate) fn push(&self, txn: Txn) {
        self.txns.lock().push(txn);
    }

    /// The transactions recorded so far.
    pub fn len(&self) -> usize {
        self.txns.lock().len()
    }

    /// Whether nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`check`] over the transactions recorded so far.
    pub fn check(&self) -> Result<Graph, Violation> {
        check(&self.txns.lock())
    }
}

/// The recorder: what a committing [`TxnCtx`] whose `begin_stamp` is
/// set notes, and appends once its commit returns. Plain loads of the
/// stores, no virtual time, no random number.
impl TxnCtx<'_> {
    /// Notes the install of `seq` into the record at `rec_off` of
    /// `node`, named `(table, key)`, at the incarnation it holds now.
    pub(crate) fn note_install(
        &mut self,
        node: NodeId,
        (table, key): (TableId, u64),
        rec_off: usize,
        seq: u64,
    ) {
        let record = self.w.cluster.stores[node].record(table, rec_off);
        let incarnation = record.incarnation();
        self.installed.push(Version {
            node,
            table,
            key,
            rec_off,
            incarnation,
            seq,
        });
    }

    /// Notes the writes of the walk that commits: the local ones C.4
    /// applied at `local_new_seqs`, and the remote ones C.5 writes at
    /// `remote_new_seqs`, under the locks C.1 took.
    pub(crate) fn note_writes(&mut self, local_new_seqs: &[u64], remote_new_seqs: &[u64]) {
        let me = self.w.node;
        let local = (self.l_ws.iter().zip(local_new_seqs))
            .map(|(e, &seq)| (me, (e.table, e.key), e.rec_off, seq));
        let remote = (self.r_ws.iter().zip(remote_new_seqs))
            .map(|(e, &seq)| (e.node, (e.table, e.key), e.rec_off, seq));
        let writes: Vec<_> = local.chain(remote).collect();
        for (node, at, rec_off, seq) in writes {
            self.note_install(node, at, rec_off, seq);
        }
    }

    /// Appends this transaction, whose commit is returning, to the
    /// cluster's history.
    pub(crate) fn record(&mut self) {
        let me = self.w.node;
        let local = self.l_rs.iter().map(|e| Version {
            node: me,
            table: e.table,
            key: e.key,
            rec_off: e.rec_off,
            incarnation: e.incarnation,
            seq: e.seq,
        });
        let remote = self.r_rs.iter().map(|e| Version {
            node: e.node,
            table: e.table,
            key: e.key,
            rec_off: e.rec_off,
            incarnation: e.incarnation,
            seq: e.seq,
        });
        let txn = Txn {
            node: me,
            worker: self.w.id,
            begin: self.begin_stamp,
            end: stamp(),
            vbegin_ns: self.start_ns,
            vend_ns: self.w.clock.now(),
            reads: local.chain(remote).collect(),
            writes: std::mem::take(&mut self.installed),
        };
        let history = self.w.cluster.history.get();
        history
            .expect("a recorded transaction's cluster records")
            .push(txn);
    }
}

/// The kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// Installed the version the other overwrote.
    Ww,
    /// Installed the version the other read.
    Wr,
    /// Read a version the other overwrote.
    Rw,
    /// Returned before the other began.
    Rt,
}

/// What an acyclic history's graph held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Graph {
    /// Transactions.
    pub txns: usize,
    /// ww edges.
    pub ww: usize,
    /// wr edges, the initial transaction's not counted.
    pub wr: usize,
    /// rw edges.
    pub rw: usize,
    /// Transactions with a real-time predecessor (one rt edge each from
    /// the stamp chain).
    pub rt: usize,
    /// wr edges between two different workers.
    pub wr_cross: usize,
    /// rw edges between two different workers.
    pub rw_cross: usize,
}

/// A transaction named in a [`Violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Named {
    /// Its position in the history.
    pub at: usize,
    /// Its machine.
    pub node: NodeId,
    /// Its worker.
    pub worker: u64,
    /// Its begin and end stamps.
    pub stamps: (u64, u64),
    /// Its virtual begin and end, ns.
    pub vns: (u64, u64),
}

impl Named {
    fn of(txns: &[Txn], at: usize) -> Self {
        let t = &txns[at];
        Self {
            at,
            node: t.node,
            worker: t.worker,
            stamps: (t.begin, t.end),
            vns: (t.vbegin_ns, t.vend_ns),
        }
    }
}

impl fmt::Display for Named {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn {} (machine {}, worker {}, stamps {}..{}, virtual {}..{} ns)",
            self.at, self.node, self.worker, self.stamps.0, self.stamps.1, self.vns.0, self.vns.1
        )
    }
}

/// Why a history is not strictly serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The graph has a cycle: each member with the edge to the next,
    /// the last one's to the first.
    Cycle(Vec<(Named, Dep)>),
    /// Two transactions, by history position, installed the same
    /// version.
    TwoInstalls(Version, [usize; 2]),
    /// A transaction, by history position, read a version that no
    /// transaction installed and that is not the loaded one: a later
    /// sequence number than a recorded install's.
    Unwritten(Version, usize),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Cycle(members) => {
                write!(f, "cycle of {} transactions:", members.len())?;
                for (named, dep) in members {
                    write!(f, "\n  {named} -{dep:?}->")?;
                }
                Ok(())
            }
            Violation::TwoInstalls(v, [a, b]) => write!(f, "{v:?} installed by txns {a} and {b}"),
            Violation::Unwritten(v, r) => write!(f, "txn {r} read {v:?}, which nobody installed"),
        }
    }
}

/// Decides whether `txns` is strictly serializable: `Ok` with the
/// graph's edge counts when its direct serialization graph, real-time
/// edges included, is acyclic (see the module doc).
pub fn check(txns: &[Txn]) -> Result<Graph, Violation> {
    let n = txns.len();
    let mut g = Graph {
        txns: n,
        ..Graph::default()
    };
    // Each record lifetime's installs, in sequence-number order.
    let mut installs: BTreeMap<(NodeId, usize, u64), Vec<(u64, usize)>> = BTreeMap::new();
    for (i, t) in txns.iter().enumerate() {
        for v in &t.writes {
            installs
                .entry(v.object())
                .or_default()
                .push((v.install(), i));
        }
    }
    let mut edges: Vec<(usize, usize, Dep)> = Vec::new();
    for (object, list) in installs.iter_mut() {
        list.sort_unstable();
        for w in list.windows(2) {
            let ((s, a), (t, b)) = (w[0], w[1]);
            if s == t {
                let mine = |v: &&Version| v.object() == *object && v.install() == s;
                let v = txns[a].writes.iter().find(mine);
                let v = *v.expect("an install of its own");
                return Err(Violation::TwoInstalls(v, [a, b]));
            }
            if a != b {
                edges.push((a, b, Dep::Ww));
            }
        }
    }
    g.ww = edges.len();
    let cross = |a: usize, b: usize| usize::from(txns[a].worker != txns[b].worker);
    for (j, t) in txns.iter().enumerate() {
        for v in &t.reads {
            let list = installs.get(&v.object()).map_or(&[][..], Vec::as_slice);
            let s = v.install();
            // The first install after the version read.
            let next = list.partition_point(|&(at, _)| at <= s);
            match next.checked_sub(1).map(|p| list[p]) {
                Some((at, i)) if at == s && i != j => {
                    edges.push((i, j, Dep::Wr));
                    g.wr += 1;
                    g.wr_cross += cross(i, j);
                }
                Some((at, _)) if at == s => {}
                // Read past a recorded install, of a version nobody
                // installed.
                Some(_) => return Err(Violation::Unwritten(*v, j)),
                // The loaded version.
                None => {}
            }
            if let Some(&(_, k)) = list.get(next) {
                if k != j {
                    edges.push((j, k, Dep::Rw));
                    g.rw += 1;
                    g.rw_cross += cross(j, k);
                }
            }
        }
    }
    // Real time: stamp node `n + r` stands for the `r`-th end stamp.
    // Each transaction enters the chain at its own end, and leaves it
    // at the last end stamp before its begin.
    let mut by_end: Vec<usize> = (0..n).collect();
    by_end.sort_unstable_by_key(|&i| txns[i].end);
    for (r, &i) in by_end.iter().enumerate() {
        edges.push((i, n + r, Dep::Rt));
        if r + 1 < n {
            edges.push((n + r, n + r + 1, Dep::Rt));
        }
    }
    for (j, t) in txns.iter().enumerate() {
        let before = by_end.partition_point(|&i| txns[i].end < t.begin);
        if before > 0 {
            edges.push((n + before - 1, j, Dep::Rt));
            g.rt += 1;
        }
    }
    match find_cycle(2 * n, &edges) {
        None => Ok(g),
        Some(cycle) => {
            // Stamp nodes are hops of an rt edge between two members.
            let members = cycle
                .into_iter()
                .filter(|&(node, _)| node < n)
                .map(|(node, dep)| (Named::of(txns, node), dep));
            Err(Violation::Cycle(members.collect()))
        }
    }
}

/// A cycle of the graph of `nodes` nodes and `edges`, if it has one:
/// each node on it with the kind of its edge to the next. Depth-first,
/// iterative, so a long chain cannot overflow the stack.
fn find_cycle(nodes: usize, edges: &[(usize, usize, Dep)]) -> Option<Vec<(usize, Dep)>> {
    // Adjacency as offsets into the edges sorted by source.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&e| edges[e].0);
    let mut first = vec![0usize; nodes + 1];
    for &(from, ..) in edges {
        first[from + 1] += 1;
    }
    for v in 0..nodes {
        first[v + 1] += first[v];
    }
    const NEW: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![NEW; nodes];
    // The path from the root: each node and the next of its edges to
    // try (the one before it is the edge the path took).
    let mut path: Vec<(usize, usize)> = Vec::new();
    for root in 0..nodes {
        if state[root] != NEW {
            continue;
        }
        state[root] = OPEN;
        path.push((root, first[root]));
        while let Some(top) = path.last_mut() {
            let v = top.0;
            if top.1 == first[v + 1] {
                state[v] = DONE;
                path.pop();
                continue;
            }
            let (_, to, _) = edges[order[top.1]];
            top.1 += 1;
            match state[to] {
                NEW => {
                    state[to] = OPEN;
                    path.push((to, first[to]));
                }
                OPEN => {
                    let start = path.iter().position(|&(u, _)| u == to);
                    let on = &path[start.expect("an open node is on the path")..];
                    let dep = |&(u, at): &(usize, usize)| (u, edges[order[at - 1]].2);
                    return Some(on.iter().map(dep).collect());
                }
                _ => {}
            }
        }
    }
    None
}
