//! Cluster/core organization.

/// Identifier of a core on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Identifier of a cluster on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// Chip organization: a rectangular grid of clusters, each with a
/// fixed number of cores (paper Table 2: 36 clusters × 8 cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Clusters along the die's x dimension.
    pub clusters_x: usize,
    /// Clusters along the die's y dimension.
    pub clusters_y: usize,
    /// Cores per cluster.
    pub cores_per_cluster: usize,
}

impl Topology {
    /// The paper's evaluation chip: 6×6 clusters of 8 cores (288).
    pub fn paper_default() -> Self {
        Self {
            clusters_x: 6,
            clusters_y: 6,
            cores_per_cluster: 8,
        }
    }

    /// A small topology for fast tests: 2×2 clusters of 4 cores.
    pub fn small() -> Self {
        Self {
            clusters_x: 2,
            clusters_y: 2,
            cores_per_cluster: 4,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters_x * self.clusters_y
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_clusters() * self.cores_per_cluster
    }

    /// Cluster containing a core.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn cluster_of(&self, core: CoreId) -> ClusterId {
        assert!(core.0 < self.num_cores(), "core id out of range");
        ClusterId(core.0 / self.cores_per_cluster)
    }

    /// The cores of a cluster, in id order.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn cores_of(&self, cluster: ClusterId) -> impl Iterator<Item = CoreId> {
        assert!(cluster.0 < self.num_clusters(), "cluster id out of range");
        let base = cluster.0 * self.cores_per_cluster;
        (base..base + self.cores_per_cluster).map(CoreId)
    }

    /// Grid coordinates `(x, y)` of a cluster.
    pub fn cluster_xy(&self, cluster: ClusterId) -> (usize, usize) {
        assert!(cluster.0 < self.num_clusters(), "cluster id out of range");
        (cluster.0 % self.clusters_x, cluster.0 / self.clusters_x)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_has_288_cores() {
        let t = Topology::paper_default();
        assert_eq!(t.num_clusters(), 36);
        assert_eq!(t.num_cores(), 288);
    }

    #[test]
    fn cluster_membership_round_trip() {
        let t = Topology::paper_default();
        for c in 0..t.num_clusters() {
            for core in t.cores_of(ClusterId(c)) {
                assert_eq!(t.cluster_of(core), ClusterId(c));
            }
        }
    }

    #[test]
    fn cluster_xy_covers_grid() {
        let t = Topology::paper_default();
        let (x, y) = t.cluster_xy(ClusterId(35));
        assert_eq!((x, y), (5, 5));
        assert_eq!(t.cluster_xy(ClusterId(6)), (0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_id_rejected() {
        Topology::small().cluster_of(CoreId(999));
    }
}
