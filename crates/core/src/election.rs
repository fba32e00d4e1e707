//! Fabric-manager election and failover support.
//!
//! After power-up, ASI runs a distributed process that selects a primary
//! and a secondary fabric manager among the FM-capable endpoints; if the
//! primary fails, the secondary takes over (spec §fabric management,
//! paper §2). The ordering rule: higher advertised priority wins, DSN
//! breaks ties (higher DSN wins, making the order total).
//!
//! The packet-level realization is the PI-9 election: each manager
//! broadcasts its [`Claim`] to its peers, folds what it hears into a
//! [`Ballot`] for one election window, and resolves the ballot with
//! [`elect`]. Every manager heard the same claims, so every manager
//! picks the same primary and runner-up. The pure comparison and
//! selection logic lives here; the claim exchange and the roles it leads
//! to live in the fabric manager's ensemble (`docs/DISTRIBUTED.md`).

/// An FM candidacy claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Claim {
    /// Advertised election priority.
    pub priority: u8,
    /// The candidate endpoint's DSN.
    pub dsn: u64,
}

impl Claim {
    /// The spec's ownership-register encoding only carries the DSN; the
    /// priority rides in the candidate's general info. For comparisons we
    /// need both.
    pub fn new(priority: u8, dsn: u64) -> Claim {
        Claim { priority, dsn }
    }
}

impl Ord for Claim {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(self.dsn.cmp(&other.dsn))
    }
}

impl PartialOrd for Claim {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Outcome of an election round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElectionResult {
    /// The winning claim — this endpoint hosts the primary FM.
    pub primary: Claim,
    /// The runner-up, if any — hosts the secondary FM.
    pub secondary: Option<Claim>,
}

/// Selects primary and secondary managers from the candidate set.
/// Returns `None` when no candidate exists.
pub fn elect(candidates: &[Claim]) -> Option<ElectionResult> {
    let mut sorted: Vec<Claim> = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let primary = *sorted.last()?;
    let secondary = sorted.len().checked_sub(2).map(|i| sorted[i]);
    Some(ElectionResult { primary, secondary })
}

/// Accumulates the claims one candidate hears during an election window
/// (its own claim included), then resolves them in one shot.
///
/// The PI-9 election broadcasts [`asi_proto::FmMessage::Claim`] packets;
/// each manager folds arriving claims into its ballot with
/// [`Ballot::record`] and, when its election timer fires, asks the
/// ballot for the outcome. Recording is idempotent — re-delivered or
/// duplicate claims cannot change the result — and order-independent,
/// so every manager that heard the same claim set resolves the same
/// primary regardless of packet arrival order.
///
/// ```
/// use asi_core::election::{Ballot, Claim};
///
/// let mut ballot = Ballot::new(Claim::new(5, 0xA1));
/// ballot.record(Claim::new(9, 0xB2)); // a stronger rival
/// ballot.record(Claim::new(9, 0xB2)); // duplicates collapse
/// assert_eq!(ballot.claims().len(), 2);
/// let result = ballot.resolve().unwrap();
/// assert_eq!(result.primary.dsn, 0xB2);
/// assert_eq!(result.secondary, Some(ballot.own())); // the runner-up
/// ```
#[derive(Clone, Debug)]
pub struct Ballot {
    own: Claim,
    claims: Vec<Claim>,
}

impl Ballot {
    /// A ballot holding only the candidate's own claim.
    pub fn new(own: Claim) -> Ballot {
        Ballot {
            own,
            claims: vec![own],
        }
    }

    /// This candidate's own claim.
    pub fn own(&self) -> Claim {
        self.own
    }

    /// Folds one observed claim into the ballot (idempotent).
    pub fn record(&mut self, claim: Claim) {
        if !self.claims.contains(&claim) {
            self.claims.push(claim);
        }
    }

    /// Every distinct claim heard so far, own claim included.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Resolves the election over everything heard so far.
    pub fn resolve(&self) -> Option<ElectionResult> {
        elect(&self.claims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_dominates_dsn() {
        let a = Claim::new(10, 1);
        let b = Claim::new(5, 999);
        assert!(a > b);
        let r = elect(&[a, b]).unwrap();
        assert_eq!(r.primary, a);
        assert_eq!(r.secondary, Some(b));
    }

    #[test]
    fn dsn_breaks_priority_ties() {
        let a = Claim::new(7, 100);
        let b = Claim::new(7, 200);
        let r = elect(&[a, b]).unwrap();
        assert_eq!(r.primary, b);
        assert_eq!(r.secondary, Some(a));
    }

    #[test]
    fn single_candidate_has_no_secondary() {
        let a = Claim::new(1, 1);
        let r = elect(&[a]).unwrap();
        assert_eq!(r.primary, a);
        assert_eq!(r.secondary, None);
    }

    #[test]
    fn empty_field_elects_nobody() {
        assert!(elect(&[]).is_none());
    }

    #[test]
    fn duplicate_claims_collapse() {
        let a = Claim::new(3, 3);
        let r = elect(&[a, a, a]).unwrap();
        assert_eq!(r.primary, a);
        assert_eq!(r.secondary, None);
    }

    #[test]
    fn ballot_is_order_independent_and_idempotent() {
        let own = Claim::new(5, 5);
        let rivals = [Claim::new(9, 9), Claim::new(1, 1), Claim::new(9, 2)];
        let mut forward = Ballot::new(own);
        for r in rivals {
            forward.record(r);
            forward.record(r);
        }
        let mut reverse = Ballot::new(own);
        for r in rivals.iter().rev() {
            reverse.record(*r);
        }
        assert_eq!(forward.resolve(), reverse.resolve());
        assert_eq!(forward.claims().len(), 4);
        let result = forward.resolve().unwrap();
        assert_eq!(result.primary, Claim::new(9, 9));
        assert_eq!(result.secondary, Some(Claim::new(9, 2)));
    }

    #[test]
    fn lone_ballot_elects_itself() {
        let ballot = Ballot::new(Claim::new(0, 7));
        let result = ballot.resolve().unwrap();
        assert_eq!((result.primary, result.secondary), (ballot.own(), None));
    }
}
