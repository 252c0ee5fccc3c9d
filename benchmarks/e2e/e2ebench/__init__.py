"""The end-to-end benchmark's own code (nothing here is imported by repro)."""
