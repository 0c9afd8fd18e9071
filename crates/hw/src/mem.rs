//! Physical memory: address map (E820), VMM reservation, and an object
//! store for in-memory device structures.
//!
//! The simulation does not model memory byte-by-byte. Instead, device
//! structures that live in guest memory — AHCI command lists and tables,
//! PRD tables, DMA data buffers — are stored as typed objects at allocated
//! physical addresses. Both the guest driver and the VMM's device mediators
//! read them *by physical address*, exactly as the paper's mediators do
//! ("in association with in-memory data structures").

use crate::block::SectorData;
use crate::hash::U64Map;
use std::any::Any;
use std::fmt;

/// A physical memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A DMA data buffer: a run of sector contents owned by some driver.
///
/// # Examples
///
/// ```
/// use hwsim::mem::DmaBuffer;
/// use hwsim::block::SectorData;
/// let mut b = DmaBuffer::new(4);
/// b.sectors[0] = SectorData(9);
/// assert_eq!(b.sectors.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DmaBuffer {
    /// One fingerprint per sector in the buffer.
    pub sectors: Vec<SectorData>,
}

impl DmaBuffer {
    /// A zero-filled buffer spanning `sectors` sectors.
    pub fn new(sectors: usize) -> DmaBuffer {
        DmaBuffer {
            sectors: vec![SectorData::ZERO; sectors],
        }
    }
}

/// One E820 address-range descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E820Entry {
    /// Start of the range.
    pub base: PhysAddr,
    /// Length in bytes.
    pub length: u64,
    /// Range type.
    pub kind: E820Kind,
}

/// E820 range types relevant to BMcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E820Kind {
    /// RAM usable by the OS.
    Usable,
    /// Reserved; the OS must not allocate it. BMcast reports its own
    /// region this way so the guest never touches VMM memory.
    Reserved,
}

/// Simulated physical memory: an E820 map plus a typed object store.
///
/// # Examples
///
/// ```
/// use hwsim::mem::{PhysMem, DmaBuffer};
/// let mut mem = PhysMem::new(96 << 30);
/// let addr = mem.alloc(DmaBuffer::new(8));
/// assert_eq!(mem.get::<DmaBuffer>(addr).unwrap().sectors.len(), 8);
/// ```
#[derive(Debug)]
pub struct PhysMem {
    total_bytes: u64,
    vmm_reserved: Option<(PhysAddr, u64)>,
    /// Objects by address, hashed with the crate's fixed hasher (the map
    /// is never iterated).
    objects: U64Map<Box<dyn Any + Send>>,
    next_addr: u64,
}

impl PhysMem {
    /// Creates memory of the given size with no reservations.
    pub fn new(total_bytes: u64) -> PhysMem {
        PhysMem {
            total_bytes,
            vmm_reserved: None,
            objects: U64Map::default(),
            // Object allocations start high, clear of the identity-mapped
            // low ranges the firmware map describes.
            next_addr: 0x1000_0000,
        }
    }

    /// Total memory size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Reserves `bytes` at the top of memory for the VMM, as BMcast does by
    /// manipulating the BIOS E820 map. Returns the reserved base address.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds total memory or a reservation exists.
    pub fn reserve_for_vmm(&mut self, bytes: u64) -> PhysAddr {
        assert!(bytes <= self.total_bytes, "reservation larger than memory");
        assert!(self.vmm_reserved.is_none(), "VMM memory already reserved");
        let base = PhysAddr(self.total_bytes - bytes);
        self.vmm_reserved = Some((base, bytes));
        base
    }

    /// The E820 map as the firmware would report it to the guest.
    pub fn e820_map(&self) -> Vec<E820Entry> {
        match self.vmm_reserved {
            None => vec![E820Entry {
                base: PhysAddr(0),
                length: self.total_bytes,
                kind: E820Kind::Usable,
            }],
            Some((base, len)) => vec![
                E820Entry {
                    base: PhysAddr(0),
                    length: base.0,
                    kind: E820Kind::Usable,
                },
                E820Entry {
                    base,
                    length: len,
                    kind: E820Kind::Reserved,
                },
            ],
        }
    }

    /// Allocates an object in memory and returns its physical address.
    pub fn alloc<T: Any + Send>(&mut self, obj: T) -> PhysAddr {
        let addr = PhysAddr(self.next_addr);
        // Leave generous spacing so addresses look like real placements.
        self.next_addr += 0x1000;
        self.objects.insert(addr.0, Box::new(obj));
        addr
    }

    /// Returns the object at `addr` if it exists and has type `T`.
    pub fn get<T: Any>(&self, addr: PhysAddr) -> Option<&T> {
        self.objects.get(&addr.0)?.downcast_ref::<T>()
    }

    /// Mutable access to the object at `addr` if it has type `T`.
    pub fn get_mut<T: Any>(&mut self, addr: PhysAddr) -> Option<&mut T> {
        self.objects.get_mut(&addr.0)?.downcast_mut::<T>()
    }

    /// Replaces the object at an existing address.
    ///
    /// # Panics
    ///
    /// Panics if nothing was allocated at `addr`.
    pub fn put<T: Any + Send>(&mut self, addr: PhysAddr, obj: T) {
        assert!(
            self.objects.contains_key(&addr.0),
            "put: no allocation at {addr}"
        );
        self.objects.insert(addr.0, Box::new(obj));
    }

    /// Frees the object at `addr`. Freeing an unknown address is a no-op.
    pub fn free(&mut self, addr: PhysAddr) {
        self.objects.remove(&addr.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_roundtrip() {
        let mut m = PhysMem::new(1 << 30);
        let a = m.alloc(DmaBuffer::new(2));
        let b = m.alloc(42u32);
        assert_eq!(m.get::<DmaBuffer>(a).unwrap().sectors.len(), 2);
        assert_eq!(*m.get::<u32>(b).unwrap(), 42);
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_type_yields_none() {
        let mut m = PhysMem::new(1 << 30);
        let a = m.alloc(1u8);
        assert!(m.get::<u16>(a).is_none());
    }

    #[test]
    fn get_mut_mutates() {
        let mut m = PhysMem::new(1 << 30);
        let a = m.alloc(DmaBuffer::new(1));
        m.get_mut::<DmaBuffer>(a).unwrap().sectors[0] = SectorData(5);
        assert_eq!(m.get::<DmaBuffer>(a).unwrap().sectors[0], SectorData(5));
    }

    #[test]
    fn free_removes() {
        let mut m = PhysMem::new(1 << 30);
        let a = m.alloc(7i64);
        m.free(a);
        assert!(m.get::<i64>(a).is_none());
        m.free(a); // idempotent
    }

    #[test]
    fn e820_without_reservation_is_one_usable_range() {
        let m = PhysMem::new(96 << 30);
        let map = m.e820_map();
        assert_eq!(map.len(), 1);
        assert_eq!(map[0].kind, E820Kind::Usable);
        assert_eq!(map[0].length, 96 << 30);
    }

    #[test]
    fn vmm_reservation_splits_map() {
        let mut m = PhysMem::new(96u64 << 30);
        let base = m.reserve_for_vmm(128 << 20);
        assert_eq!(base.0, (96u64 << 30) - (128 << 20));
        let map = m.e820_map();
        assert_eq!(map.len(), 2);
        assert_eq!(map[0].kind, E820Kind::Usable);
        assert_eq!(map[0].length, (96u64 << 30) - (128 << 20));
        assert_eq!(map[1].kind, E820Kind::Reserved);
        assert_eq!(map[1].length, 128 << 20);
    }

    #[test]
    #[should_panic(expected = "already reserved")]
    fn double_reservation_panics() {
        let mut m = PhysMem::new(1 << 30);
        m.reserve_for_vmm(1 << 20);
        m.reserve_for_vmm(1 << 20);
    }
}
