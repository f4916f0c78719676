package repro.util

import org.scalacheck.{Arbitrary, Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class NormalizeSpec extends AnyFunSuite {
  test("lowercases") { assert(Normalize("Spike Lee") == "spike lee") }
  test("collapses whitespace") { assert(Normalize("  Do  the\tRight  Thing ") == "do the right thing") }
  test("strips punctuation") { assert(Normalize("O'Brien, Conan.") == "o brien conan") }
  test("folds accents") { assert(Normalize("Almodóvar") == "almodovar") }
  test("keeps digits") { assert(Normalize("PG-13") == "pg 13") }
  test("isbn normalises") { assert(Normalize("978-0-12345-678-9") == "978 0 12345 678 9") }
  test("empty input") { assert(Normalize("") == "") }
  test("only punctuation becomes empty") { assert(Normalize("!!!") == "") }
  test("idempotent") {
    val s = Normalize("The Crimson Harbor")
    assert(Normalize(s) == s)
  }
  test("danish flavoured letters fold") { assert(Normalize("Høst ångström") == Normalize("Host angstrom")) }

  test("lowInformation: empty") { assert(Normalize.lowInformation("")) }
  test("lowInformation: bare year") { assert(Normalize.lowInformation("1994")) }
  test("lowInformation: single digit") { assert(Normalize.lowInformation("7")) }
  test("lowInformation: two chars") { assert(Normalize.lowInformation("ab")) }
  test("lowInformation: number with spaces") { assert(Normalize.lowInformation("6-7")) }
  test("lowInformation: names pass") { assert(!Normalize.lowInformation("Spike Lee")) }
  test("lowInformation: titles pass") { assert(!Normalize.lowInformation("Do the Right Thing")) }

  /** Page-like text: letters and digits mixed with the characters each
    * normalisation step rewrites (accents, combining marks, letters NFD
    * cannot fold, punctuation, runs of whitespace), plus any other char.
    */
  private val text: Gen[String] = {
    val special = Gen.oneOf("áÉñüÅ\u0301\u0308øØæÐþłßİı'.,-!:/ \t\n\u00a0".toSeq)
    val char    = Gen.frequency(5 -> Gen.alphaNumChar, 3 -> special, 1 -> Arbitrary.arbitrary[Char])
    Gen.choose(0, 20).flatMap(n => Gen.listOfN(n, char).map(_.mkString))
  }

  private def check(prop: Prop): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)

  test("property: idempotent") {
    check(Prop.forAll(text)(s => Normalize(Normalize(s)) == Normalize(s)))
  }
  test("property: lowInformation is unchanged by normalising first") {
    check(Prop.forAll(text)(s => Normalize.lowInformation(Normalize(s)) == Normalize.lowInformation(s)))
  }
}
