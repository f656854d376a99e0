//! Instance and dataset representation.
//!
//! The learner handles exactly what the paper's task needs: numeric
//! attributes and a boolean class. Attribute values are `f64`; missing
//! values are not supported (the scraped features never miss).

use serde::{Deserialize, Serialize};

/// One training or test example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Attribute values, aligned with
    /// [`MlDataset::attribute_names`].
    pub values: Vec<f64>,
    /// The class ("interesting" in the paper's task).
    pub label: bool,
}

impl Instance {
    /// Build an instance.
    pub fn new(values: Vec<f64>, label: bool) -> Instance {
        Instance { values, label }
    }
}

/// A set of instances over named numeric attributes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MlDataset {
    attribute_names: Vec<String>,
    instances: Vec<Instance>,
}

impl MlDataset {
    /// Create an empty dataset over the given attributes.
    pub fn new<S: Into<String>>(attribute_names: Vec<S>) -> MlDataset {
        MlDataset {
            attribute_names: attribute_names.into_iter().map(Into::into).collect(),
            instances: Vec::new(),
        }
    }

    /// Attribute names.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// Number of attributes.
    pub(crate) fn attribute_count(&self) -> usize {
        self.attribute_names.len()
    }

    /// Add an instance.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the attribute count,
    /// or any value is NaN — both are programmer errors in feature
    /// extraction.
    pub fn push(&mut self, instance: Instance) {
        assert_eq!(
            instance.values.len(),
            self.attribute_names.len(),
            "instance arity mismatch"
        );
        assert!(
            instance.values.iter().all(|v| !v.is_nan()),
            "NaN attribute value"
        );
        self.instances.push(instance);
    }

    /// All instances.
    pub(crate) fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Count of positive labels.
    pub fn positives(&self) -> usize {
        self.instances.iter().filter(|i| i.label).count()
    }

    /// A dataset with the same attributes and the selected instances
    /// (cloned).
    pub fn subset(&self, idx: &[usize]) -> MlDataset {
        MlDataset {
            attribute_names: self.attribute_names.clone(),
            instances: idx.iter().map(|&i| self.instances[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let mut ds = MlDataset::new(vec!["v10", "fans1"]);
        ds.push(Instance::new(vec![3.0, 10.0], true));
        ds.push(Instance::new(vec![8.0, 200.0], false));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.positives(), 1);
        assert_eq!(ds.attribute_count(), 2);
        assert_eq!(ds.attribute_names()[0], "v10");
        assert!(!ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut ds = MlDataset::new(vec!["a"]);
        ds.push(Instance::new(vec![1.0, 2.0], true));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_value_panics() {
        let mut ds = MlDataset::new(vec!["a"]);
        ds.push(Instance::new(vec![f64::NAN], true));
    }

    #[test]
    fn subset_selects_rows() {
        let mut ds = MlDataset::new(vec!["a"]);
        for i in 0..5 {
            ds.push(Instance::new(vec![i as f64], i % 2 == 0));
        }
        let s = ds.subset(&[0, 4]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.instances()[1].values[0], 4.0);
    }
}
