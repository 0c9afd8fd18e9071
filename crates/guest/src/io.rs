//! Block-I/O request and completion types.

use hwsim::block::{BlockRange, SectorData};

/// An opaque identifier correlating a request with its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "io#{}", self.0)
    }
}

/// A block-I/O request from the guest OS to a block driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoRequest {
    /// Correlation id.
    pub id: RequestId,
    /// Target sectors.
    pub range: BlockRange,
    /// Payload for writes; `None` for reads.
    ///
    /// When present its length must equal `range.sectors`.
    pub data: Option<Vec<SectorData>>,
}

impl IoRequest {
    /// A read request.
    pub fn read(id: RequestId, range: BlockRange) -> IoRequest {
        IoRequest {
            id,
            range,
            data: None,
        }
    }

    /// A write request.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != range.sectors`.
    pub fn write(id: RequestId, range: BlockRange, data: Vec<SectorData>) -> IoRequest {
        assert_eq!(data.len(), range.sectors as usize, "payload/range mismatch");
        IoRequest {
            id,
            range,
            data: Some(data),
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        self.data.is_some()
    }
}

/// A finished block-I/O operation reported by a driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedIo {
    /// The request's id.
    pub id: RequestId,
    /// The sectors covered.
    pub range: BlockRange,
    /// Whether it was a write.
    pub write: bool,
    /// Data read, in LBA order; empty for writes.
    pub data: Vec<SectorData>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::block::Lba;

    #[test]
    fn read_request_has_no_data() {
        let r = IoRequest::read(RequestId(1), BlockRange::new(Lba(0), 4));
        assert!(!r.is_write());
        assert!(r.data.is_none());
    }

    #[test]
    fn write_request_carries_data() {
        let r = IoRequest::write(
            RequestId(2),
            BlockRange::new(Lba(0), 2),
            vec![SectorData(1), SectorData(2)],
        );
        assert!(r.is_write());
    }

    #[test]
    #[should_panic(expected = "payload/range mismatch")]
    fn mismatched_write_panics() {
        IoRequest::write(
            RequestId(3),
            BlockRange::new(Lba(0), 2),
            vec![SectorData(1)],
        );
    }
}
