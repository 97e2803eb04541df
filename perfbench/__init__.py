"""Slot benchmark for the collaborative-VR edge server and simulator."""
