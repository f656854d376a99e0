//! Umbrella crate re-exporting the Digg-reproduction workspace.
pub use digg_core as core;
pub use digg_data as data;
pub use digg_ml as ml;
pub use digg_sim as sim;
pub use digg_stats as stats;
pub use social_graph as graph;
