"""Tests for the patient cohort registry."""

import pytest

from repro.patients import COHORTS, all_patients, make_patient, patient_ids


class TestRegistry:
    def test_two_cohorts(self):
        assert set(COHORTS) == {"glucosym", "t1ds2013"}

    def test_twenty_patients_total(self):
        """The paper evaluates 20 patient profiles (Section V-A)."""
        assert sum(len(ids) for ids in COHORTS.values()) == 20

    def test_patient_ids_copies(self):
        ids = patient_ids("glucosym")
        ids.append("fake")
        assert "fake" not in COHORTS["glucosym"]

    def test_unknown_cohort(self):
        with pytest.raises(KeyError, match="unknown cohort"):
            patient_ids("nope")
        with pytest.raises(KeyError, match="unknown cohort"):
            make_patient("nope", "A")

    def test_make_patient_dispatch(self):
        assert make_patient("glucosym", "A").name == "glucosym/A"
        assert make_patient("t1ds2013", "P01").name == "t1ds2013/P01"

    def test_all_patients(self):
        patients = all_patients("glucosym")
        assert len(patients) == 10
        assert all(p.target_glucose == 120.0 for p in patients)

    def test_target_glucose_forwarded(self):
        patient = make_patient("glucosym", "A", target_glucose=140.0)
        assert patient.target_glucose == 140.0
        assert patient.basal_rate() == patient.basal_rate(140.0)
