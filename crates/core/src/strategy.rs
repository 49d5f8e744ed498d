//! The three socket-migration strategies compared in §III-C and Fig. 5b/5c.

use std::fmt;

/// How sockets are checkpointed and shipped during a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The "natural way": iterate the fd table and migrate each socket
    /// one-by-one — a capture round trip and a state transfer per socket.
    /// Computation and transmission interleave, so the wire is never kept
    /// full and fixed per-message costs repeat `n` times.
    Iterative,
    /// Three-phase collective migration: (1) capture details of *all*
    /// connections in one message, (2) all socket state subtracted into one
    /// unified buffer and transferred in one go, (3) the regular fd-table
    /// iteration for everything that is not a socket.
    Collective,
    /// Collective, plus socket state is *tracked incrementally during the
    /// precopy phase*: most socket structures stop changing once the loop
    /// timeout is short, so the freeze phase ships only deltas.
    IncrementalCollective,
}

impl Strategy {
    /// All strategies, in the order the paper's figures present them.
    pub const ALL: [Strategy; 3] = [
        Strategy::Iterative,
        Strategy::Collective,
        Strategy::IncrementalCollective,
    ];

    /// Whether socket deltas are shipped during the precopy loop.
    pub fn tracks_sockets_in_precopy(self) -> bool {
        matches!(self, Strategy::IncrementalCollective)
    }

    /// Whether the freeze phase ships sockets in one aggregated buffer.
    pub fn is_collective(self) -> bool {
        !matches!(self, Strategy::Iterative)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Iterative => write!(f, "iterative"),
            Strategy::Collective => write!(f, "collective"),
            Strategy::IncrementalCollective => write!(f, "incremental collective"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!Strategy::Iterative.is_collective());
        assert!(Strategy::Collective.is_collective());
        assert!(Strategy::IncrementalCollective.is_collective());
        assert!(Strategy::IncrementalCollective.tracks_sockets_in_precopy());
        assert!(!Strategy::Collective.tracks_sockets_in_precopy());
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Strategy::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["iterative", "collective", "incremental collective"]);
    }
}
