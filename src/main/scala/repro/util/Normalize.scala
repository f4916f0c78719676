package repro.util

import java.text.Normalizer
import java.util.regex.Pattern

/** Text normalisation used for entity mention matching.
  *
  * The paper matches page text fields against the KB with fuzzy string
  * matching [Gulhane et al. 2010]; our substitute (documented in DESIGN.md §2)
  * is normalised exact matching: lower-case, accent folding, punctuation and
  * whitespace collapsing. The synthetic sites emit entity names verbatim, so
  * this plays the same role while keeping matching deterministic.
  *
  * Page text is normalised once, when [[repro.dom.PageDoc.fromTree]] stores
  * it as `NodeRow.norm`; `apply` is idempotent, so the pipeline can pass that
  * stored form wherever a raw string is accepted.
  */
object Normalize {

  private val Marks    = Pattern.compile("\\p{M}+")
  private val NonAlnum = Pattern.compile("[^a-z0-9 ]+")
  private val Spaces   = Pattern.compile("\\s+")
  private val Numeric  = Pattern.compile("[0-9 ]+")

  /** Canonical form of a text field for KB matching. */
  def apply(s: String): String = {
    val folded = Marks.matcher(Normalizer.normalize(s, Normalizer.Form.NFD)).replaceAll("")
    // Letters NFD cannot decompose (no combining form).
    val translit = folded
      .replace('ø', 'o').replace('Ø', 'O')
      .replace('æ', 'a').replace('Æ', 'A')
      .replace('ð', 'd').replace('Ð', 'D')
      .replace('þ', 't').replace('Þ', 'T')
      .replace('ł', 'l').replace('Ł', 'L')
      .replace("ß", "ss")
    val alnum = NonAlnum.matcher(translit.toLowerCase).replaceAll(" ")
    Spaces.matcher(alnum).replaceAll(" ").trim
  }

  /** True for strings the paper discards as topic candidates for having low
    * information content: empty strings, bare numbers (incl. years), and very
    * short tokens. Country names are handled by the uniqueness filter since
    * our KB stores them as frequent object values.
    */
  def lowInformation(s: String): Boolean = {
    val n = apply(s)
    n.isEmpty || n.length <= 2 || Numeric.matcher(n).matches()
  }
}
