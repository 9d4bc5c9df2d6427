//! The configuration record embedded in application binaries.
//!
//! The binary rewriter appends a data segment to the application binary that
//! tells the Coign runtime how to behave at load time. During profiling it
//! names the classifier and accumulates summarized profiles; after analysis
//! it carries the classifier's descriptor table and the chosen distribution,
//! and instructs the runtime to load the lightweight instrumentation
//! instead.

use crate::analysis::Distribution;
use crate::profile::IccProfile;
use coign_com::codec::{Decoder, Encoder};
use coign_com::{ComError, ComResult};

/// Which runtime the configuration record instructs Coign to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Full profiling instrumentation.
    Profiling,
    /// Lightweight distribution-realization instrumentation.
    Distributed,
}

/// The contents of the `.coign` configuration section.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigRecord {
    /// Runtime mode at next load.
    pub mode: RuntimeMode,
    /// Serialized instance classifier (kind, depth, descriptor table).
    pub classifier: Vec<u8>,
    /// Accumulated communication profile (summary information from
    /// profiling scenarios merges here instead of growing a log file).
    pub profile: IccProfile,
    /// The chosen distribution, once analysis has run.
    pub distribution: Option<Distribution>,
}

impl ConfigRecord {
    /// A fresh profiling-mode record with an empty profile.
    pub fn profiling(classifier_bytes: Vec<u8>) -> Self {
        ConfigRecord {
            mode: RuntimeMode::Profiling,
            classifier: classifier_bytes,
            profile: IccProfile::new(),
            distribution: None,
        }
    }

    /// Serializes the record for embedding in an [`coign_com::AppImage`].
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("COIGNCFG");
        e.put_u8(match self.mode {
            RuntimeMode::Profiling => 0,
            RuntimeMode::Distributed => 1,
        });
        e.put_bytes(&self.classifier);
        e.put_bytes(&self.profile.encode());
        match &self.distribution {
            Some(dist) => {
                e.put_bool(true);
                e.put_bytes(&dist.encode());
            }
            None => e.put_bool(false),
        }
        e.finish()
    }

    /// Deserializes a record from section bytes.
    pub(crate) fn decode(bytes: &[u8]) -> ComResult<Self> {
        let mut d = Decoder::new(bytes);
        let magic = d.get_str()?;
        if magic != "COIGNCFG" {
            return Err(ComError::Codec(format!(
                "bad configuration record magic {magic:?}"
            )));
        }
        let mode = match d.get_u8()? {
            0 => RuntimeMode::Profiling,
            1 => RuntimeMode::Distributed,
            other => return Err(ComError::Codec(format!("unknown runtime mode {other}"))),
        };
        let classifier = d.get_bytes()?;
        let profile = IccProfile::decode(&d.get_bytes()?)?;
        let distribution = if d.get_bool()? {
            Some(Distribution::decode(&d.get_bytes()?)?)
        } else {
            None
        };
        Ok(ConfigRecord {
            mode,
            classifier,
            profile,
            distribution,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
    use coign_com::{Clsid, Iid, MachineId};
    use std::collections::HashMap;

    fn sample_record() -> ConfigRecord {
        let classifier = InstanceClassifier::new(ClassifierKind::Ifcb);
        let mut profile = IccProfile::new();
        profile.record_instance(ClassificationId(1), Clsid::from_name("A"));
        profile.record_message(
            ClassificationId::ROOT,
            ClassificationId(1),
            Iid::from_name("IA"),
            0,
            500,
        );
        profile.scenarios.push("o_newdoc".into());
        let mut placement = HashMap::new();
        placement.insert(ClassificationId(1), MachineId::SERVER);
        ConfigRecord {
            mode: RuntimeMode::Distributed,
            classifier: classifier.encode(),
            profile,
            distribution: Some(Distribution {
                placement,
                predicted_comm_us: 123.5,
                network_name: "10BaseT Ethernet".into(),
            }),
        }
    }

    #[test]
    fn roundtrip_full_record() {
        let record = sample_record();
        let back = ConfigRecord::decode(&record.encode()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn roundtrip_profiling_record() {
        let record =
            ConfigRecord::profiling(InstanceClassifier::new(ClassifierKind::Ifcb).encode());
        assert_eq!(record.mode, RuntimeMode::Profiling);
        assert!(record.distribution.is_none());
        let back = ConfigRecord::decode(&record.encode()).unwrap();
        assert_eq!(back, record);
        // The embedded classifier decodes too.
        let classifier = InstanceClassifier::decode(&back.classifier).unwrap();
        assert_eq!(classifier.kind(), ClassifierKind::Ifcb);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut e = Encoder::new();
        e.put_str("NOTCOIGN");
        assert!(ConfigRecord::decode(&e.finish()).is_err());
    }

    #[test]
    fn bad_mode_is_rejected() {
        let mut e = Encoder::new();
        e.put_str("COIGNCFG");
        e.put_u8(9);
        assert!(ConfigRecord::decode(&e.finish()).is_err());
    }

    #[test]
    fn truncated_record_is_rejected() {
        let bytes = sample_record().encode();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ConfigRecord::decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
