//! Modeled application binary images.
//!
//! Coign's binary rewriter makes two modifications to an application binary:
//! it inserts the Coign runtime DLL into the **first slot** of the
//! executable's import table (so the runtime loads and initializes before the
//! application or any of its DLLs), and it appends a **configuration record**
//! data segment holding profiling instructions, summarized profiles, the
//! classifier map, and eventually the chosen distribution.
//!
//! [`AppImage`] models exactly those aspects of a PE binary: a name, an
//! ordered import table, a set of named sections, and the list of component
//! classes the binary implements (standing in for the class table a real
//! binary would register).

use crate::codec::{Decoder, Encoder};
use crate::error::{ComError, ComResult};
use crate::guid::Clsid;

/// Name of the section holding the Coign configuration record.
pub const CONFIG_SECTION: &str = ".coign";

/// One import-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DllImport {
    /// Imported module name, e.g. `"ole32.dll"`.
    pub name: String,
}

impl DllImport {
    /// Creates an import entry.
    pub fn new(name: &str) -> Self {
        DllImport {
            name: name.to_string(),
        }
    }
}

/// A named data section appended to the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSection {
    /// Section name, e.g. [`CONFIG_SECTION`].
    pub name: String,
    /// Raw section contents.
    pub data: Vec<u8>,
}

/// A modeled application binary (executable plus its component DLLs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppImage {
    /// Application name, e.g. `"octarine.exe"`.
    pub name: String,
    /// DLL import table, in load order.
    pub imports: Vec<DllImport>,
    /// Data sections (the rewriter appends the configuration record here).
    pub sections: Vec<ConfigSection>,
    /// Component classes implemented by the binary.
    pub classes: Vec<Clsid>,
}

impl AppImage {
    /// Creates an image with a standard system import table.
    pub fn new(name: &str, classes: Vec<Clsid>) -> Self {
        AppImage {
            name: name.to_string(),
            imports: vec![
                DllImport::new("kernel32.dll"),
                DllImport::new("ole32.dll"),
                DllImport::new("user32.dll"),
            ],
            sections: Vec::new(),
            classes,
        }
    }

    /// Starts a fluent builder for programmatic image construction (used
    /// by synthetic application generators, where classes and imports
    /// accumulate incrementally rather than arriving as one vector).
    pub fn builder(name: &str) -> ImageBuilder {
        ImageBuilder {
            image: AppImage::new(name, Vec::new()),
        }
    }

    /// Returns true if the image imports the given module.
    pub fn has_import(&self, name: &str) -> bool {
        self.imports.iter().any(|imp| imp.name == name)
    }

    /// Inserts a module into the *first* import slot (so it loads before
    /// everything else). Idempotent: an existing entry is moved to front.
    pub fn insert_import_first(&mut self, name: &str) {
        self.imports.retain(|imp| imp.name != name);
        self.imports.insert(0, DllImport::new(name));
    }

    /// Removes an import entirely.
    pub fn remove_import(&mut self, name: &str) {
        self.imports.retain(|imp| imp.name != name);
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&ConfigSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Writes (or replaces) a section.
    pub fn set_section(&mut self, name: &str, data: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|s| s.name == name) {
            s.data = data;
        } else {
            self.sections.push(ConfigSection {
                name: name.to_string(),
                data,
            });
        }
    }

    /// Removes a section; returns its former contents.
    pub fn remove_section(&mut self, name: &str) -> Option<Vec<u8>> {
        let idx = self.sections.iter().position(|s| s.name == name)?;
        Some(self.sections.remove(idx).data)
    }

    /// Shorthand: the Coign configuration record bytes, if present.
    pub fn config_record(&self) -> Option<&[u8]> {
        self.section(CONFIG_SECTION).map(|s| s.data.as_slice())
    }

    /// Shorthand: writes the Coign configuration record.
    pub fn set_config_record(&mut self, data: Vec<u8>) {
        self.set_section(CONFIG_SECTION, data);
    }

    /// Total modeled size of the image in bytes (for reporting).
    pub fn total_size(&self) -> usize {
        let imports: usize = self.imports.iter().map(|i| i.name.len() + 8).sum();
        let sections: usize = self
            .sections
            .iter()
            .map(|s| s.name.len() + s.data.len() + 16)
            .sum();
        64 + self.name.len() + imports + sections + self.classes.len() * 16
    }

    /// Serializes the image to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("COIGNIMG");
        e.put_str(&self.name);
        e.put_seq(self.imports.len());
        for imp in &self.imports {
            e.put_str(&imp.name);
        }
        e.put_seq(self.sections.len());
        for s in &self.sections {
            e.put_str(&s.name);
            e.put_bytes(&s.data);
        }
        e.put_seq(self.classes.len());
        for c in &self.classes {
            e.put_guid(c.0);
        }
        e.finish()
    }

    /// Deserializes an image from bytes.
    pub fn decode(bytes: &[u8]) -> ComResult<Self> {
        let mut d = Decoder::new(bytes);
        let magic = d.get_str()?;
        if magic != "COIGNIMG" {
            return Err(ComError::Codec(format!("bad image magic {magic:?}")));
        }
        let name = d.get_str()?;
        let n_imports = d.get_seq(4)?;
        let mut imports = Vec::with_capacity(n_imports);
        for _ in 0..n_imports {
            imports.push(DllImport::new(&d.get_str()?));
        }
        let n_sections = d.get_seq(8)?;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = d.get_str()?;
            let data = d.get_bytes()?;
            sections.push(ConfigSection { name, data });
        }
        let n_classes = d.get_seq(16)?;
        let mut classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            classes.push(Clsid(d.get_guid()?));
        }
        Ok(AppImage {
            name,
            imports,
            sections,
            classes,
        })
    }
}

/// Fluent constructor for [`AppImage`]: starts from the standard system
/// import table and accumulates classes, extra imports, and sections.
///
/// # Examples
///
/// ```
/// use coign_com::{AppImage, Clsid};
///
/// let image = AppImage::builder("gen-7-small.exe")
///     .class(Clsid::from_name("GenDoc"))
///     .classes([Clsid::from_name("GenStore")])
///     .import("odbc32.dll")
///     .build();
/// assert_eq!(image.classes.len(), 2);
/// assert!(image.has_import("odbc32.dll"));
/// ```
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    image: AppImage,
}

impl ImageBuilder {
    /// Adds one component class.
    pub fn class(mut self, clsid: Clsid) -> Self {
        self.image.classes.push(clsid);
        self
    }

    /// Adds a batch of component classes, preserving order.
    pub fn classes<I: IntoIterator<Item = Clsid>>(mut self, clsids: I) -> Self {
        self.image.classes.extend(clsids);
        self
    }

    /// Appends an import-table entry (deduplicated; order of first
    /// appearance is kept, matching how a linker emits the table).
    pub fn import(mut self, name: &str) -> Self {
        if !self.image.has_import(name) {
            self.image.imports.push(DllImport::new(name));
        }
        self
    }

    /// Writes (or replaces) a named data section.
    pub fn section(mut self, name: &str, data: Vec<u8>) -> Self {
        self.image.set_section(name, data);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> AppImage {
        self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AppImage {
        AppImage::new(
            "octarine.exe",
            vec![Clsid::from_name("Story"), Clsid::from_name("TableLayout")],
        )
    }

    #[test]
    fn new_image_has_system_imports() {
        let img = sample();
        assert!(img.has_import("ole32.dll"));
        assert!(img.config_record().is_none());
    }

    #[test]
    fn insert_first_places_at_slot_zero() {
        let mut img = sample();
        img.insert_import_first("coign_rte.dll");
        assert_eq!(img.imports[0].name, "coign_rte.dll");
        // Idempotent: re-inserting keeps exactly one entry, still first.
        img.insert_import_first("coign_rte.dll");
        assert_eq!(
            img.imports
                .iter()
                .filter(|i| i.name == "coign_rte.dll")
                .count(),
            1
        );
        assert_eq!(img.imports[0].name, "coign_rte.dll");
    }

    #[test]
    fn sections_write_replace_remove() {
        let mut img = sample();
        img.set_config_record(vec![1, 2, 3]);
        assert_eq!(img.config_record(), Some(&[1u8, 2, 3][..]));
        img.set_config_record(vec![9]);
        assert_eq!(img.config_record(), Some(&[9u8][..]));
        assert_eq!(img.sections.len(), 1);
        assert_eq!(img.remove_section(CONFIG_SECTION), Some(vec![9]));
        assert!(img.config_record().is_none());
        assert_eq!(img.remove_section(CONFIG_SECTION), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut img = sample();
        img.insert_import_first("coign_rte.dll");
        img.set_config_record(vec![5; 100]);
        let bytes = img.encode();
        let back = AppImage::decode(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AppImage::decode(&[0xde, 0xad]).is_err());
        let mut e = crate::codec::Encoder::new();
        e.put_str("WRONGMAG");
        assert!(AppImage::decode(&e.finish()).is_err());
    }

    #[test]
    fn builder_accumulates_and_dedups_imports() {
        let img = AppImage::builder("gen-1-small.exe")
            .class(Clsid::from_name("A"))
            .classes([Clsid::from_name("B"), Clsid::from_name("C")])
            .import("odbc32.dll")
            .import("odbc32.dll")
            .import("user32.dll") // already in the system table
            .section(".gen", vec![1, 2])
            .build();
        assert_eq!(img.classes.len(), 3);
        assert_eq!(
            img.imports
                .iter()
                .filter(|i| i.name == "odbc32.dll")
                .count(),
            1
        );
        assert_eq!(
            img.imports
                .iter()
                .filter(|i| i.name == "user32.dll")
                .count(),
            1
        );
        assert_eq!(img.section(".gen").unwrap().data, vec![1, 2]);
        // The builder path and the direct path agree on the system table.
        assert_eq!(img.imports[0].name, "kernel32.dll");
    }

    #[test]
    fn size_grows_with_config_record() {
        let mut img = sample();
        let before = img.total_size();
        img.set_config_record(vec![0; 1000]);
        assert!(img.total_size() >= before + 1000);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::codec::properties::{random_bytes, random_string, random_u128};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn image_roundtrip() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let name = random_string(&mut rng, &['a'..='z'], 1..13) + ".exe";
            let imports = (0..rng.gen_range(0..8))
                .map(|_| {
                    let stem = random_string(&mut rng, &['a'..='z', '0'..='9', '_'..='_'], 1..17);
                    DllImport::new(&format!("{stem}.dll"))
                })
                .collect();
            let data = random_bytes(&mut rng, 256);
            let classes = (0..rng.gen_range(0..8))
                .map(|_| Clsid(crate::guid::Guid(random_u128(&mut rng))))
                .collect();
            let mut img = AppImage {
                name,
                imports,
                sections: Vec::new(),
                classes,
            };
            img.set_config_record(data);
            let back = AppImage::decode(&img.encode()).unwrap();
            assert_eq!(back, img, "case {case}");
        }
    }
}
