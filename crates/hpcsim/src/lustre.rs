//! Shared-filesystem (Lustre-like) contention model.
//!
//! The paper observes that PyMuPDF's scaling plateaus around 100–128 nodes
//! because extraction is so fast that the shared filesystem becomes the
//! bottleneck, and that aggregating many small PDFs into node-local ZIP
//! archives is necessary to keep metadata pressure off the Lustre servers.
//! This model captures exactly those two effects: an aggregate bandwidth cap
//! shared by all concurrent readers, and a per-file metadata cost that
//! node-local staging amortizes away.

/// Aggregate read bandwidth of the filesystem in MiB/s (Eagle: ~650 GB/s),
/// shared fairly by every concurrent reader.
const AGGREGATE_BANDWIDTH_MB_S: f64 = 650_000.0;

/// Parameters of the shared filesystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LustreModel {
    /// Maximum bandwidth a single node can draw in MiB/s (2×25 GB/s NICs,
    /// realistically a few GiB/s of file traffic).
    pub per_node_bandwidth_mb_s: f64,
    /// Metadata operation latency per file open in seconds.
    pub metadata_latency_s: f64,
    /// Maximum metadata operations per second the metadata servers sustain.
    pub metadata_ops_per_s: f64,
}

impl Default for LustreModel {
    fn default() -> Self {
        LustreModel {
            per_node_bandwidth_mb_s: 3_000.0,
            metadata_latency_s: 0.002,
            metadata_ops_per_s: 40_000.0,
        }
    }
}

impl LustreModel {
    /// Check the model before a drain reads it: a NaN field, a bandwidth
    /// that is not positive, or an infinite metadata latency panics here,
    /// naming the field, rather than turning into infinite stage-in times
    /// deep in dispatch or being absorbed by a `min` or `max`. An infinite
    /// bandwidth or metadata rate is legal: that resource is free.
    ///
    /// # Panics
    ///
    /// Panics as described above.
    pub(crate) fn validate(&self) {
        let bandwidth = self.per_node_bandwidth_mb_s;
        assert!(bandwidth > 0.0, "LustreModel::per_node_bandwidth_mb_s must be positive, got {bandwidth}");
        let latency = self.metadata_latency_s;
        assert!(latency.is_finite(), "LustreModel::metadata_latency_s must be finite, got {latency}");
        let ops = self.metadata_ops_per_s;
        assert!(!ops.is_nan(), "LustreModel::metadata_ops_per_s must not be NaN");
    }

    /// Effective per-node read bandwidth when `concurrent_nodes` nodes read
    /// simultaneously: the aggregate cap is shared fairly, and no node can
    /// exceed its NIC limit.
    pub fn effective_node_bandwidth(&self, concurrent_nodes: usize) -> f64 {
        let nodes = concurrent_nodes.max(1) as f64;
        (AGGREGATE_BANDWIDTH_MB_S / nodes).min(self.per_node_bandwidth_mb_s)
    }

    /// Time to stage `input_mb` MiB arriving as `files` files onto a node,
    /// with `concurrent_nodes` nodes staging at once. `aggregated` models the
    /// paper's ZIP/node-local staging optimization: file count collapses to
    /// one archive per batch, removing metadata pressure.
    pub fn stage_in_seconds(
        &self,
        input_mb: f64,
        files: usize,
        concurrent_nodes: usize,
        aggregated: bool,
    ) -> f64 {
        let bandwidth = self.effective_node_bandwidth(concurrent_nodes);
        let transfer = if bandwidth > 0.0 { input_mb.max(0.0) / bandwidth } else { f64::INFINITY };
        let effective_files = if aggregated { 1 } else { files.max(1) };
        // Metadata servers are shared too: under heavy concurrency each open
        // takes longer than its nominal latency.
        let metadata_rate_share = (self.metadata_ops_per_s / concurrent_nodes.max(1) as f64).max(1.0);
        let metadata = effective_files as f64 * self.metadata_latency_s.max(1.0 / metadata_rate_share);
        transfer + metadata
    }

    /// Data-locality penalty: extra seconds to run a task on a node other
    /// than the one where its input was staged. The node-local copy
    /// (NVMe/ramdisk archive) is useless remotely, so the input transits the
    /// shared filesystem again — one more bandwidth-shared transfer plus one
    /// metadata open for the archive.
    pub fn locality_penalty_seconds(&self, input_mb: f64, concurrent_nodes: usize) -> f64 {
        let bandwidth = self.effective_node_bandwidth(concurrent_nodes);
        let transfer = if bandwidth > 0.0 { input_mb.max(0.0) / bandwidth } else { f64::INFINITY };
        transfer + self.metadata_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_shared_and_capped() {
        let fs = LustreModel::default();
        assert_eq!(fs.effective_node_bandwidth(1), fs.per_node_bandwidth_mb_s);
        let many = fs.effective_node_bandwidth(1000);
        assert!(many < fs.per_node_bandwidth_mb_s);
        assert!((many - 650.0).abs() < 1.0);
    }

    #[test]
    fn stage_in_grows_with_contention() {
        let fs = LustreModel::default();
        let alone = fs.stage_in_seconds(500.0, 1, 1, true);
        let crowded = fs.stage_in_seconds(500.0, 1, 2000, true);
        assert!(crowded > alone);
    }

    #[test]
    fn aggregation_removes_small_file_penalty() {
        let fs = LustreModel::default();
        let many_small = fs.stage_in_seconds(100.0, 5_000, 64, false);
        let aggregated = fs.stage_in_seconds(100.0, 5_000, 64, true);
        assert!(many_small > aggregated * 2.0, "{many_small} vs {aggregated}");
    }

    #[test]
    fn locality_penalty_scales_with_input_and_contention() {
        let fs = LustreModel::default();
        let small = fs.locality_penalty_seconds(1.0, 1);
        let large = fs.locality_penalty_seconds(1000.0, 1);
        assert!(large > small);
        let crowded = fs.locality_penalty_seconds(1000.0, 2000);
        assert!(crowded > large, "contention amplifies the off-node cost");
        assert!(fs.locality_penalty_seconds(0.0, 1) > 0.0, "still one metadata open");
    }

    #[test]
    fn zero_input_still_pays_metadata() {
        let fs = LustreModel::default();
        let t = fs.stage_in_seconds(0.0, 1, 1, true);
        assert!(t > 0.0);
        assert!(t < 0.1);
    }
}
