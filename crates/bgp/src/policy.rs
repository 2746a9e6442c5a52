//! Business relationships, export rules and per-session configuration.
//!
//! Inter-domain routing policy in the simulator follows the standard
//! Gao–Rexford model: every BGP session is either *customer–provider* or
//! *peer–peer*, routers prefer customer routes over peer routes over
//! provider routes, and a route learned from a peer or provider is only
//! exported to customers ("valley-free" routing). This matches the paper's
//! topology reasoning — e.g. §6.1 explains missed dampers by noting that
//! beacon signals placed near Tier-1s travel provider→customer or
//! peer→peer, so an AS damping *only customers* is invisible.
//!
//! Per-session knobs live in [`SessionPolicy`]: the relationship, inbound
//! RFD (applied to every prefix the session carries) and outbound MRAI.
//! Exports prepend the local ASN exactly once. Per-session RFD is what
//! lets an experiment deploy the paper's *inconsistently damping* AS-701
//! analogue (damp every neighbor except one).

use serde::{Deserialize, Serialize};

use netsim::SimDuration;

use crate::rfd::RfdParams;

/// The business relationship of a neighbor, *from the local AS's
/// perspective*: `Customer` means "this neighbor is my customer".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor pays the local AS for transit.
    Customer,
    /// Settlement-free peering.
    Peer,
    /// The local AS pays the neighbor for transit.
    Provider,
}

impl Relationship {
    /// The relationship as seen from the other end of the session.
    pub fn reversed(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Peer => Relationship::Peer,
            Relationship::Provider => Relationship::Customer,
        }
    }

    /// Local preference assigned to routes learned from this neighbor:
    /// customer (100) > peer (90) > provider (80).
    pub fn local_pref(self) -> u32 {
        match self {
            Relationship::Customer => 100,
            Relationship::Peer => 90,
            Relationship::Provider => 80,
        }
    }
}

/// Gao–Rexford export filter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ExportPolicy;

impl ExportPolicy {
    /// May a route learned from `learned_from` be exported to a neighbor
    /// with relationship `export_to`? Locally-originated routes pass
    /// `None` for `learned_from` and are exported to everyone.
    pub fn permits(learned_from: Option<Relationship>, export_to: Relationship) -> bool {
        match learned_from {
            // Own routes and customer routes go to everyone.
            None | Some(Relationship::Customer) => true,
            // Peer/provider routes go only to customers.
            Some(Relationship::Peer) | Some(Relationship::Provider) => {
                export_to == Relationship::Customer
            }
        }
    }
}

/// Configuration of one directed session (how the local router treats one
/// neighbor).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SessionPolicy {
    /// Business relationship of the neighbor.
    pub relationship: Relationship,
    /// Inbound route flap damping on this session, if enabled.
    pub rfd: Option<RfdParams>,
    /// Outbound MRAI interval for announcements, if enabled.
    pub mrai: Option<SimDuration>,
}

impl SessionPolicy {
    /// A plain session with the given relationship: no RFD, no MRAI.
    pub fn plain(relationship: Relationship) -> Self {
        SessionPolicy {
            relationship,
            rfd: None,
            mrai: None,
        }
    }

    /// Enable inbound RFD with the given parameters.
    pub fn with_rfd(mut self, params: RfdParams) -> Self {
        self.rfd = Some(params);
        self
    }

    /// Enable outbound MRAI.
    pub fn with_mrai(mut self, interval: SimDuration) -> Self {
        self.mrai = Some(interval);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rfd::VendorProfile;

    #[test]
    fn reversed_is_involutive() {
        for r in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            assert_eq!(r.reversed().reversed(), r);
        }
        assert_eq!(Relationship::Customer.reversed(), Relationship::Provider);
        assert_eq!(Relationship::Peer.reversed(), Relationship::Peer);
    }

    #[test]
    fn local_pref_ordering() {
        assert!(Relationship::Customer.local_pref() > Relationship::Peer.local_pref());
        assert!(Relationship::Peer.local_pref() > Relationship::Provider.local_pref());
    }

    #[test]
    fn gao_rexford_export_matrix() {
        use Relationship::*;
        // Customer routes and own routes go everywhere.
        for to in [Customer, Peer, Provider] {
            assert!(ExportPolicy::permits(Some(Customer), to));
            assert!(ExportPolicy::permits(None, to));
        }
        // Peer/provider routes only to customers.
        for from in [Peer, Provider] {
            assert!(ExportPolicy::permits(Some(from), Customer));
            assert!(!ExportPolicy::permits(Some(from), Peer));
            assert!(!ExportPolicy::permits(Some(from), Provider));
        }
    }

    #[test]
    fn plain_session_has_no_rfd_or_mrai() {
        let pol = SessionPolicy::plain(Relationship::Provider);
        assert!(pol.rfd.is_none());
        assert!(pol.mrai.is_none());
    }

    #[test]
    fn builders_compose() {
        let pol = SessionPolicy::plain(Relationship::Customer)
            .with_rfd(VendorProfile::Juniper.params())
            .with_mrai(SimDuration::from_secs(30));
        assert!(pol.rfd.is_some());
        assert_eq!(pol.mrai, Some(SimDuration::from_secs(30)));
    }
}
