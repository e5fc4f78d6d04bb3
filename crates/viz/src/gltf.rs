//! Minimal glTF 2.0 export (the paper's 3D output format).
//!
//! Produces a single-file `.gltf` (JSON with an embedded base64
//! buffer): one mesh of vertex-colored triangles, one node, one scene.
//! Valid for Blender, three.js and the usual viewers.

use crate::scene::Scene;
use serde_json::json;

/// Serializes a scene as a self-contained glTF 2.0 JSON string.
#[expect(clippy::expect_used, reason = "the glTF document always serializes")]
pub fn to_gltf(scene: &Scene) -> String {
    let mut positions: Vec<f32> = Vec::new();
    let mut colors: Vec<f32> = Vec::new();
    let mut indices: Vec<u32> = Vec::new();
    for b in scene.boxes() {
        let base = (positions.len() / 3) as u32;
        let corners = box_corners(b.min, b.max);
        for c in corners {
            positions.extend_from_slice(&c);
            colors.extend_from_slice(&b.color);
        }
        for tri in BOX_TRIANGLES {
            indices.extend(tri.iter().map(|&v| base + v));
        }
    }
    let (min, max) = bounds(&positions);

    let mut buffer: Vec<u8> = Vec::new();
    for p in &positions {
        buffer.extend_from_slice(&p.to_le_bytes());
    }
    let colors_offset = buffer.len();
    for c in &colors {
        buffer.extend_from_slice(&c.to_le_bytes());
    }
    let indices_offset = buffer.len();
    for i in &indices {
        buffer.extend_from_slice(&i.to_le_bytes());
    }

    let doc = json!({
        "asset": {"version": "2.0", "generator": "las-viz"},
        "scene": 0,
        "scenes": [{"nodes": [0]}],
        "nodes": [{"mesh": 0}],
        "meshes": [{
            "primitives": [{
                "attributes": {"POSITION": 0, "COLOR_0": 1},
                "indices": 2,
                "mode": 4
            }]
        }],
        "buffers": [{
            "byteLength": buffer.len(),
            "uri": format!("data:application/octet-stream;base64,{}", base64(&buffer)),
        }],
        "bufferViews": [
            {"buffer": 0, "byteOffset": 0, "byteLength": colors_offset, "target": 34962},
            {"buffer": 0, "byteOffset": colors_offset,
             "byteLength": indices_offset - colors_offset, "target": 34962},
            {"buffer": 0, "byteOffset": indices_offset,
             "byteLength": buffer.len() - indices_offset, "target": 34963}
        ],
        "accessors": [
            {"bufferView": 0, "componentType": 5126, "count": positions.len() / 3,
             "type": "VEC3", "min": min, "max": max},
            {"bufferView": 1, "componentType": 5126, "count": colors.len() / 4,
             "type": "VEC4"},
            {"bufferView": 2, "componentType": 5125, "count": indices.len(),
             "type": "SCALAR"}
        ]
    });
    serde_json::to_string_pretty(&doc).expect("gltf json serializes")
}

fn bounds(positions: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut min = vec![f32::MAX; 3];
    let mut max = vec![f32::MIN; 3];
    for chunk in positions.chunks_exact(3) {
        for d in 0..3 {
            min[d] = min[d].min(chunk[d]);
            max[d] = max[d].max(chunk[d]);
        }
    }
    if positions.is_empty() {
        return (vec![0.0; 3], vec![0.0; 3]);
    }
    (min, max)
}

fn box_corners(min: [f32; 3], max: [f32; 3]) -> [[f32; 3]; 8] {
    [
        [min[0], min[1], min[2]],
        [max[0], min[1], min[2]],
        [max[0], max[1], min[2]],
        [min[0], max[1], min[2]],
        [min[0], min[1], max[2]],
        [max[0], min[1], max[2]],
        [max[0], max[1], max[2]],
        [min[0], max[1], max[2]],
    ]
}

/// The 12 triangles of a box, CCW seen from outside.
const BOX_TRIANGLES: [[u32; 3]; 12] = [
    [0, 2, 1],
    [0, 3, 2], // bottom (z = min)
    [4, 5, 6],
    [4, 6, 7], // top
    [0, 1, 5],
    [0, 5, 4], // front (y = min)
    [2, 3, 7],
    [2, 7, 6], // back
    [1, 2, 6],
    [1, 6, 5], // right
    [0, 4, 7],
    [0, 7, 3], // left
];

/// Standard base64 (RFC 4648, with padding).
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (b[0] as u32) << 16 | (b[1] as u32) << 8 | b[2] as u32;
        let chars = [
            ALPHABET[(n >> 18 & 63) as usize],
            ALPHABET[(n >> 12 & 63) as usize],
            ALPHABET[(n >> 6 & 63) as usize],
            ALPHABET[(n & 63) as usize],
        ];
        let keep = chunk.len() + 1;
        for (i, &ch) in chars.iter().enumerate() {
            out.push(if i < keep { ch as char } else { '=' });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneOptions;

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn gltf_is_valid_json_with_required_keys() {
        let d = lasre::fixtures::cnot_design();
        let scene = Scene::from_design(&d, SceneOptions::default());
        let text = to_gltf(&scene);
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["asset"]["version"], "2.0");
        assert_eq!(doc["accessors"].as_array().unwrap().len(), 3);
        let count = doc["accessors"][0]["count"].as_u64().unwrap();
        assert_eq!(count % 8, 0, "8 vertices per box");
        assert!(doc["buffers"][0]["uri"]
            .as_str()
            .unwrap()
            .starts_with("data:"));
    }

    #[test]
    fn empty_scene_serializes() {
        let text = to_gltf(&Scene::default());
        assert!(serde_json::from_str::<serde_json::Value>(&text).is_ok());
    }
}
