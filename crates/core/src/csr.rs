//! A flat table of variable-length rows: one offset array, one data array.
//!
//! The one per-range table a level set stores — its host lists, under
//! bucketed placement; hyperlinks are derived, not tabulated — is read row
//! by row and replaced wholesale, never edited in place. Stored as offset +
//! data it costs two heap blocks per set however many ranges it has, sits
//! behind one `Arc` that a clone of the web bumps instead of copying, and
//! puts a row's entries next to its neighbours' instead of behind a `Vec`
//! header each.

/// Row `i` is `data[offsets[i]..offsets[i + 1]]`; `offsets` has one entry
/// more than there are rows and never decreases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr<T> {
    offsets: Box<[u32]>,
    data: Box<[T]>,
}

impl<T> Csr<T> {
    /// Builds a table of `rows` rows; `fill(i, out)` appends row `i`'s
    /// entries to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the rows hold more than `u32::MAX` entries in total.
    pub(crate) fn build(rows: usize, mut fill: impl FnMut(usize, &mut Vec<T>)) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut data = Vec::new();
        offsets.push(0);
        for i in 0..rows {
            fill(i, &mut data);
            assert!(
                data.len() <= u32::MAX as usize,
                "row offsets are 32-bit: {} entries",
                data.len()
            );
            offsets.push(data.len() as u32);
        }
        Csr {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The entries of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether the layout is well formed: offsets start at zero, never
    /// decrease, and end at the data length.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.offsets.first() == Some(&0)
            && self.offsets.windows(2).all(|w| w[0] <= w[1])
            && self.offsets.last().map(|&e| e as usize) == Some(self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_as_filled() {
        let rows: [&[u32]; 4] = [&[1, 2], &[], &[7], &[]];
        let csr = Csr::build(rows.len(), |i, out| out.extend_from_slice(rows[i]));
        assert_eq!(csr.rows(), 4);
        for (i, want) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), *want);
        }
        assert!(csr.is_well_formed());
    }
}
